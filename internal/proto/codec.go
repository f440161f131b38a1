// Hand-rolled binary wire codec — the sole wire format (the gob oracle
// that shipped alongside it for one release is gone; the golden
// wire-bytes and fuzz tests below are the codec's correctness pins).
//
// Frame layout, documented in DESIGN.md §"Wire format":
//
//	version byte (wireVersion)
//	kind byte (Body.kind: one of the kind* constants)
//	From, To   string
//	ReqID      uvarint
//	Workflow   string
//	body fields, in struct order (Body.encode)
//
// Primitives: uvarint is unsigned LEB128 (encoding/binary layout); varint
// is zigzag-encoded; string and []byte are uvarint length + raw bytes;
// bool is one byte (0/1); float64 is 8 big-endian bytes of its IEEE 754
// bits; time.Time is varint Unix seconds + uvarint nanoseconds (the
// instant only — wall offset and monotonic readings do not survive the
// wire, matching what the envelope consumers compare with time.Equal).
// Slices are uvarint count + elements; no body carries a map. A pointer
// field (FragmentReply.Capabilities) is a presence bool, then the fields
// when present; TaskMeta.Location is the point, (0, 0) when absent, then
// its presence bool. Every field is always written: one layout per body,
// and a layout change bumps wireVersion.
//
// Unlike gob, no type descriptors are transmitted and no reflection runs:
// encoding a hot broadcast message (FragmentQuery, BidBatch) into a pooled
// buffer performs zero allocations, and decoding a frame performs a small
// constant number: one copy of its strings, whose substrings back every
// decoded string field, the body's box, and its lists, which a first pass
// over the frame counts so that they come from one allocation per element
// type, or from one block for an auction message (Decode).
//
// Decoding is defensive: every length and count is bounded by the bytes
// remaining in the frame, unknown version/kind bytes and trailing garbage
// are errors, and no input can make the decoder panic or allocate more
// than O(len(frame)) (FuzzEnvelopeRoundTrip exercises this).
package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"openwf/internal/model"
	"openwf/internal/space"
)

// wireVersion is the first byte of every binary frame. Bump it when the
// layout changes; decoders reject versions they do not understand.
const wireVersion byte = 7

// Body kind tags. The zero tag is invalid so an all-zero frame cannot
// decode. Tags are wire contract: never renumber, only append. Tags 5–7
// carried the per-task round (call for bids, bid, decline) and tag 17 a
// batch of coalesced envelopes; all four are retired: the blanks keep every
// later tag's value, and the decoder rejects them like any unknown kind.
const (
	kindInvalid byte = iota
	kindFragmentQuery
	kindFragmentReply
	kindFeasibilityQuery
	kindFeasibilityReply
	_ // 5, retired
	_ // 6, retired
	_ // 7, retired
	kindAward
	kindAwardAck
	kindCancel
	kindPlan
	kindLabelTransfer
	kindTaskDone
	kindAck
	kindCallForBidsBatch
	kindBidBatch
	_ // 17, retired
	kindLeaseRefresh
	kindLeaseRefreshAck
	kindAdvertise
	kindAdvertiseAck
)

// EncodeTo appends the wire encoding of env to buf. Transports call it
// with a pooled buffer: once the buffer has grown to fit, encoding
// performs no allocations of its own.
func EncodeTo(buf *bytes.Buffer, env Envelope) error {
	if env.Body == nil {
		return errors.New("encoding envelope: nil body")
	}
	// A nil fragment has no layout: it is the caller's error, not a frame.
	if r, ok := env.Body.(FragmentReply); ok && slices.Contains(r.Fragments, nil) {
		return errors.New("encoding fragment-reply envelope: nil fragment")
	}
	e := encoder{buf}
	e.byte(wireVersion)
	e.header(env.Body.kind(), env)
	env.Body.encode(e)
	return nil
}

// encoder writes into the caller's buffer. It is passed by value to
// Body.encode: a pointer would escape through the interface call, one
// allocation per frame (TestEncodeToAllocFree).
type encoder struct{ buf *bytes.Buffer }

func (e encoder) byte(b byte)   { e.buf.WriteByte(b) }
func (e encoder) uint(v uint64) { e.buf.Write(binary.AppendUvarint(e.buf.AvailableBuffer(), v)) }
func (e encoder) int(v int64)   { e.buf.Write(binary.AppendVarint(e.buf.AvailableBuffer(), v)) }
func (e encoder) f64(v float64) {
	e.buf.Write(binary.BigEndian.AppendUint64(e.buf.AvailableBuffer(), math.Float64bits(v)))
}
func (e encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf.WriteString(s)
}
func (e encoder) bytes(b []byte) {
	e.uint(uint64(len(b)))
	e.buf.Write(b)
}
func (e encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// time encodes the instant: varint Unix seconds plus uvarint nanoseconds.
func (e encoder) time(t time.Time) {
	e.int(t.Unix())
	e.uint(uint64(t.Nanosecond()))
}

func (e encoder) labels(ls []model.LabelID) {
	e.uint(uint64(len(ls)))
	for _, l := range ls {
		e.str(string(l))
	}
}

func (e encoder) taskIDs(ts []model.TaskID) {
	e.uint(uint64(len(ts)))
	for _, t := range ts {
		e.str(string(t))
	}
}

func (e encoder) point(p space.Point) {
	e.f64(p.X)
	e.f64(p.Y)
}

func (e encoder) meta(m TaskMeta) {
	e.str(string(m.Task))
	e.uint(uint64(m.Mode))
	e.labels(m.Inputs)
	e.labels(m.Outputs)
	e.time(m.Start)
	e.time(m.End)
	if m.Location != nil {
		e.point(*m.Location)
	} else {
		e.point(space.Point{})
	}
	e.bool(m.Location != nil)
}

func (e encoder) metas(ms []TaskMeta) {
	e.uint(uint64(len(ms)))
	for _, m := range ms {
		e.meta(m)
	}
}

func (e encoder) routes(rs []Route) {
	e.uint(uint64(len(rs)))
	for _, r := range rs {
		e.str(string(r.Label))
		e.str(string(r.To))
	}
}

// header writes the kind tag and the envelope routing fields.
func (e encoder) header(kind byte, env Envelope) {
	e.byte(kind)
	e.str(string(env.From))
	e.str(string(env.To))
	e.uint(env.ReqID)
	e.str(env.Workflow)
}

// --- each body's tag and fields, in tag order ---

func (FragmentQuery) kind() byte { return kindFragmentQuery }
func (q FragmentQuery) encode(e encoder) {
	e.labels(q.Labels)
	e.bool(q.Describe)
}

func (FragmentReply) kind() byte { return kindFragmentReply }
func (r FragmentReply) encode(e encoder) {
	e.uint(uint64(len(r.Fragments)))
	for _, f := range r.Fragments {
		e.str(f.Name)
		e.uint(uint64(len(f.Tasks)))
		for _, t := range f.Tasks {
			e.str(string(t.ID))
			e.uint(uint64(t.Mode))
			e.labels(t.Inputs)
			e.labels(t.Outputs)
		}
	}
	e.bool(r.Capabilities != nil)
	if c := r.Capabilities; c != nil {
		e.labels(c.Labels)
		e.taskIDs(c.Tasks)
	}
}

func (FeasibilityQuery) kind() byte         { return kindFeasibilityQuery }
func (q FeasibilityQuery) encode(e encoder) { e.taskIDs(q.Tasks) }

func (FeasibilityReply) kind() byte         { return kindFeasibilityReply }
func (r FeasibilityReply) encode(e encoder) { e.taskIDs(r.Capable) }

func (Award) kind() byte { return kindAward }
func (a Award) encode(e encoder) {
	e.meta(a.Meta)
	e.metas(a.More)
	e.bool(a.Hold)
	e.routes(a.Routes)
}

func (AwardAck) kind() byte { return kindAwardAck }
func (a AwardAck) encode(e encoder) {
	e.uint(uint64(len(a.Refused)))
	for _, v := range a.Refused {
		e.str(string(v.Task))
		e.str(v.Reason)
	}
}

func (Cancel) kind() byte         { return kindCancel }
func (c Cancel) encode(e encoder) { e.taskIDs(c.Tasks) }

func (Plan) kind() byte { return kindPlan }
func (p Plan) encode(e encoder) {
	e.uint(uint64(len(p.Segments)))
	for _, s := range p.Segments {
		e.str(string(s.Task))
		e.str(string(s.Initiator))
		e.routes(s.Routes)
	}
}

func (LabelTransfer) kind() byte { return kindLabelTransfer }
func (lt LabelTransfer) encode(e encoder) {
	e.str(string(lt.Label))
	e.bytes(lt.Data)
	e.str(string(lt.Producer))
}

func (TaskDone) kind() byte { return kindTaskDone }
func (td TaskDone) encode(e encoder) {
	e.str(string(td.Task))
	e.str(td.Err)
}

func (Ack) kind() byte     { return kindAck }
func (Ack) encode(encoder) {}

func (CallForBidsBatch) kind() byte         { return kindCallForBidsBatch }
func (c CallForBidsBatch) encode(e encoder) { e.metas(c.Metas) }

func (BidBatch) kind() byte { return kindBidBatch }
func (b BidBatch) encode(e encoder) {
	e.uint(uint64(len(b.Bids)))
	for _, bid := range b.Bids {
		e.str(string(bid.Task))
		e.int(int64(bid.ServicesOffered))
		e.f64(bid.Specialization)
		e.time(bid.Deadline)
	}
	e.taskIDs(b.Declines)
}

func (LeaseRefresh) kind() byte         { return kindLeaseRefresh }
func (r LeaseRefresh) encode(e encoder) { e.taskIDs(r.Tasks) }

func (LeaseRefreshAck) kind() byte { return kindLeaseRefreshAck }
func (a LeaseRefreshAck) encode(e encoder) {
	e.taskIDs(a.Missing)
	e.taskIDs(a.Finished)
}

func (Advertise) kind() byte { return kindAdvertise }
func (a Advertise) encode(e encoder) {
	e.labels(a.Labels)
	e.taskIDs(a.Tasks)
}

func (AdvertiseAck) kind() byte { return kindAdvertiseAck }
func (a AdvertiseAck) encode(e encoder) {
	e.labels(a.Labels)
	e.taskIDs(a.Tasks)
}

// --- decoding ---

var (
	errTruncated = errors.New("truncated frame")
	errCorrupt   = errors.New("corrupt frame")
)

// cloneThreshold bounds the string sharing below: when a frame's strings
// add up to more, each is copied out on its own, so a small retained field
// (a label used as a map key, say) cannot pin a large backing array. A
// LabelTransfer's payload is a []byte, never part of its frame's strings.
const cloneThreshold = 4 << 10

// Decode decodes a frame produced by EncodeTo. It fully copies: nothing
// in the returned envelope aliases data, so callers may recycle the input
// buffer immediately (the transports' read paths rely on this;
// TestDecodeCopiesInput and TestDecodeLargeFrameCopiesInput assert it).
//
// It reads the frame twice. The first pass sizes it: it checks every byte,
// adds up the counts of the lists of each element type and the lengths of
// the strings, and allocates nothing. Then allocate makes what was
// counted, and the second pass, which reads the same bytes and cannot fail,
// cuts every list and string from it. A frame costs its strings' one copy,
// its body's box into Body, and one list per element type it carries — or
// one block for an auction message's metas, routes and labels (carveBlock).
func Decode(data []byte) (Envelope, error) {
	d := decoder{b: data, sizing: true}
	d.envelope()
	if d.err != nil {
		return Envelope{}, fmt.Errorf("decoding envelope: %w", d.err)
	}
	d.allocate()
	d.pos, d.sizing = 0, false
	return d.envelope(), nil
}

// decoder reads one frame. It keeps the first error it meets: every read
// after that returns the zero value and consumes nothing, and a counted
// loop stops, so a body is decoded as one composite literal and the error
// is looked at once, in Decode. Element decoders are written out per type
// rather than passed as func values — a func argument makes the decoder
// escape, one allocation on every frame (TestDecodeAllocBounds).
type decoder struct {
	b   []byte
	pos int
	err error
	// sizing is set for the first pass: lists and strings are counted, not
	// made, and every list, string and body read is nil or empty.
	sizing bool
	// strLen is the total length of the frame's strings. When it is at most
	// cloneThreshold, strs holds them back to back and every decoded string
	// is a substring of it; otherwise strs stays empty and each string is a
	// copy of its own.
	strLen int
	strs   strings.Builder
	p      pools
}

// pools holds a pool per element type that a list holds.
type pools struct {
	labs     pool[model.LabelID]
	ids      pool[model.TaskID]
	metas    pool[TaskMeta]
	points   pool[space.Point]
	routes   pool[Route]
	tasks    pool[model.Task]
	frags    pool[model.Fragment]
	fragPtrs pool[*model.Fragment]
	verdicts pool[Verdict]
	segments pool[PlanSegment]
	bids     pool[Bid]
}

// pool is a frame's elements of one type. The sizing pass adds each list's
// count to n; allocate makes free exactly n long, or cuts it from a block;
// the decoding pass takes each list's window from it in wire order.
type pool[T any] struct {
	n    int
	free []T
}

// take returns the next n elements, the window's capacity capped at its
// length so that appending to one list copies it instead of overwriting
// the next (TestDecodedListsDoNotShareTails). While sizing it counts them
// and returns nil.
func (p *pool[T]) take(sizing bool, n int) []T {
	if sizing {
		p.n += n
		return nil
	}
	s := p.free[:n:n]
	p.free = p.free[n:]
	return s
}

// alloc makes the pool's one list, unless a block already holds it.
func (p *pool[T]) alloc() {
	if p.n > 0 && p.free == nil {
		p.free = make([]T, p.n)
	}
}

// list reads a count and takes a window of that many elements from p;
// none is a nil list, like gob leaving a slice field untouched.
func list[T any](d *decoder, p *pool[T]) (int, []T) {
	n := d.count()
	if n == 0 {
		return 0, nil
	}
	return n, p.take(d.sizing, n)
}

// block is an auction message's lists in one allocation: the metas of a
// call for bids or an award's More, the award's routes, and every label
// list of those metas and of the award's Meta. An array of length zero,
// placed before the last field, costs nothing.
type block[M, R, L any] struct {
	metas  M
	routes R
	labs   L
}

// shape is what a frame holds of a block's element types.
type shape struct{ metas, routes, labs int }

// carveBlock gives the metas, routes and labels one allocation when the
// frame has the shape of an award of a chain of one to six tasks, each with
// an input, an output and a route for it, or of a call for bids of six
// tasks — all but a few of the awards and calls for bids the benchmark's
// workloads decode — or of a six-task award without routes or a call for
// bids of one task.
// Each array is exactly its count, so the block holds what the pools
// would, and a frame of any other shape takes the pools.
func (d *decoder) carveBlock() {
	switch (shape{d.p.metas.n, d.p.routes.n, d.p.labs.n}) {
	case shape{0, 1, 2}:
		b := new(block[[0]TaskMeta, [1]Route, [2]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	case shape{1, 2, 4}:
		b := new(block[[1]TaskMeta, [2]Route, [4]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	case shape{2, 3, 6}:
		b := new(block[[2]TaskMeta, [3]Route, [6]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	case shape{3, 4, 8}:
		b := new(block[[3]TaskMeta, [4]Route, [8]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	case shape{4, 5, 10}:
		b := new(block[[4]TaskMeta, [5]Route, [10]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	case shape{5, 6, 12}:
		b := new(block[[5]TaskMeta, [6]Route, [12]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	case shape{5, 0, 12}:
		b := new(block[[5]TaskMeta, [0]Route, [12]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	case shape{1, 0, 2}:
		b := new(block[[1]TaskMeta, [0]Route, [2]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	case shape{6, 0, 12}:
		b := new(block[[6]TaskMeta, [0]Route, [12]model.LabelID])
		d.carve(b.metas[:], b.routes[:], b.labs[:])
	}
}

func (d *decoder) carve(metas []TaskMeta, routes []Route, labs []model.LabelID) {
	d.p.metas.free, d.p.routes.free, d.p.labs.free = metas, routes, labs
}

// allocate makes what the sizing pass counted: the strings' one copy, the
// block if the frame has its shape, and one list per other element type.
func (d *decoder) allocate() {
	if d.strLen <= cloneThreshold {
		d.strs.Grow(d.strLen)
	}
	d.carveBlock()
	d.p.labs.alloc()
	d.p.ids.alloc()
	d.p.metas.alloc()
	d.p.points.alloc()
	d.p.routes.alloc()
	d.p.tasks.alloc()
	d.p.frags.alloc()
	d.p.fragPtrs.alloc()
	d.p.verdicts.alloc()
	d.p.segments.alloc()
	d.p.bids.alloc()
}

// fail keeps err unless an earlier error is already kept.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// rem returns how many bytes remain; counts and lengths are bounded by it
// so corrupt frames cannot trigger large allocations.
func (d *decoder) rem() int { return len(d.b) - d.pos }

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.b) {
		d.err = errTruncated
		return 0
	}
	b := d.b[d.pos]
	d.pos++
	return b
}

func (d *decoder) uint() uint64 {
	if d.err != nil {
		return 0
	}
	// Most varints on the wire are one byte: lengths, counts, modes.
	if d.pos < len(d.b) && d.b[d.pos] < 0x80 {
		d.pos++
		return uint64(d.b[d.pos-1])
	}
	rest := d.b[d.pos:]
	v, n := binary.Uvarint(rest)
	switch {
	case n > 0:
		d.pos += n
		return v
	case n == 0 && len(rest) < binary.MaxVarintLen64:
		d.err = errTruncated
	case n == -binary.MaxVarintLen64: // the tenth byte carries past 64 bits
		d.err = fmt.Errorf("%w: uvarint overflow", errCorrupt)
	default:
		d.err = fmt.Errorf("%w: uvarint too long", errCorrupt)
	}
	return 0
}

func (d *decoder) int() int64 {
	u := d.uint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// count reads a collection length, bounded by the remaining bytes (every
// element occupies at least one byte on the wire).
func (d *decoder) count() int {
	n := d.uint()
	if n > uint64(d.rem()) {
		d.err = fmt.Errorf("%w: count %d exceeds %d remaining bytes", errCorrupt, n, d.rem())
		return 0
	}
	return int(n)
}

// str appends the string to the frame's strings and returns it as their
// substring, or copies it on its own when they are too long to share.
func (d *decoder) str() string {
	n := d.count()
	i := d.pos
	d.pos += n
	switch {
	case n == 0:
		return ""
	case d.sizing:
		d.strLen += n
		return ""
	case d.strs.Cap() == 0: // over cloneThreshold: allocate did not grow it
		return string(d.b[i:d.pos])
	}
	from := d.strs.Len()
	d.strs.Write(d.b[i:d.pos])
	return d.strs.String()[from:]
}

// bytes returns a fresh copy (a []byte must not alias the frame), read
// straight from b: that one copy is all a payload costs.
func (d *decoder) bytes() []byte {
	n := d.count()
	i := d.pos
	d.pos += n
	if n == 0 || d.sizing {
		return nil
	}
	return bytes.Clone(d.b[i:d.pos])
}

func (d *decoder) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail(fmt.Errorf("%w: bool byte %d", errCorrupt, b))
	}
	return b == 1
}

func (d *decoder) f64() float64 {
	if d.rem() < 8 {
		d.fail(errTruncated)
	}
	if d.err != nil {
		return 0
	}
	bits := binary.BigEndian.Uint64(d.b[d.pos:])
	d.pos += 8
	return math.Float64frombits(bits)
}

func (d *decoder) time() time.Time {
	sec, nsec := d.int(), d.uint()
	if nsec > 999_999_999 {
		d.fail(fmt.Errorf("%w: %d nanoseconds", errCorrupt, nsec))
	}
	if d.err != nil || d.sizing {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec))
}

// The list decoders below read every element on both passes, so the sizing
// pass counts the lists nested in them; only the decoding pass, whose
// window is not nil, stores an element.

func (d *decoder) labels() []model.LabelID {
	n, out := list(d, &d.p.labs)
	for i := 0; i < n && d.err == nil; i++ {
		if l := model.LabelID(d.str()); out != nil {
			out[i] = l
		}
	}
	return out
}

func (d *decoder) taskIDs() []model.TaskID {
	n, out := list(d, &d.p.ids)
	for i := 0; i < n && d.err == nil; i++ {
		if t := model.TaskID(d.str()); out != nil {
			out[i] = t
		}
	}
	return out
}

func (d *decoder) tasks() []model.Task {
	n, out := list(d, &d.p.tasks)
	for i := 0; i < n && d.err == nil; i++ {
		t := model.Task{
			ID:      model.TaskID(d.str()),
			Mode:    model.Mode(d.uint()),
			Inputs:  d.labels(),
			Outputs: d.labels(),
		}
		if out != nil {
			out[i] = t
		}
	}
	return out
}

// fragments points each fragment into one list of fragments, and their
// tasks are windows of one list of tasks.
func (d *decoder) fragments() []*model.Fragment {
	n, out := list(d, &d.p.fragPtrs)
	fs := d.p.frags.take(d.sizing, n)
	for i := 0; i < n && d.err == nil; i++ {
		if f := (model.Fragment{Name: d.str(), Tasks: d.tasks()}); out != nil {
			fs[i] = f
			out[i] = &fs[i]
		}
	}
	return out
}

// meta takes a point only for a located meta; the point of one that is
// not located is read and dropped.
func (d *decoder) meta() TaskMeta {
	m := TaskMeta{
		Task:    model.TaskID(d.str()),
		Mode:    model.Mode(d.uint()),
		Inputs:  d.labels(),
		Outputs: d.labels(),
		Start:   d.time(),
		End:     d.time(),
	}
	x, y := d.f64(), d.f64()
	if d.bool() {
		if p := d.p.points.take(d.sizing, 1); p != nil {
			p[0] = space.Point{X: x, Y: y}
			m.Location = &p[0]
		}
	}
	return m
}

func (d *decoder) metas() []TaskMeta {
	n, out := list(d, &d.p.metas)
	for i := 0; i < n && d.err == nil; i++ {
		if m := d.meta(); out != nil {
			out[i] = m
		}
	}
	return out
}

// refusals reads an ack's refused tasks; none is a nil list.
func (d *decoder) refusals() []Verdict {
	n, out := list(d, &d.p.verdicts)
	for i := 0; i < n && d.err == nil; i++ {
		if v := (Verdict{Task: model.TaskID(d.str()), Reason: d.str()}); out != nil {
			out[i] = v
		}
	}
	return out
}

func (d *decoder) segments() []PlanSegment {
	n, out := list(d, &d.p.segments)
	for i := 0; i < n && d.err == nil; i++ {
		s := PlanSegment{
			Task:      model.TaskID(d.str()),
			Initiator: Addr(d.str()),
			Routes:    d.routes(),
		}
		if out != nil {
			out[i] = s
		}
	}
	return out
}

func (d *decoder) routes() []Route {
	n, out := list(d, &d.p.routes)
	for i := 0; i < n && d.err == nil; i++ {
		if r := (Route{Label: model.LabelID(d.str()), To: Addr(d.str())}); out != nil {
			out[i] = r
		}
	}
	return out
}

// capabilities reads a presence bool and, when set, the capability set.
func (d *decoder) capabilities() *Advertise {
	if !d.bool() {
		return nil
	}
	labels, tasks := d.labels(), d.taskIDs()
	if d.sizing {
		return nil
	}
	return &Advertise{Labels: labels, Tasks: tasks}
}

func (d *decoder) bids() []Bid {
	n, out := list(d, &d.p.bids)
	for i := 0; i < n && d.err == nil; i++ {
		b := Bid{
			Task:            model.TaskID(d.str()),
			ServicesOffered: int(d.int()),
			Specialization:  d.f64(),
			Deadline:        d.time(),
		}
		if out != nil {
			out[i] = b
		}
	}
	return out
}

// envelope reads the whole frame: version byte, one kind-tagged envelope,
// nothing after it.
func (d *decoder) envelope() Envelope {
	if version := d.byte(); version != wireVersion {
		d.fail(fmt.Errorf("%w: wire version %d (want %d)", errCorrupt, version, wireVersion))
	}
	kind := d.byte()
	env := Envelope{
		From:     Addr(d.str()),
		To:       Addr(d.str()),
		ReqID:    d.uint(),
		Workflow: d.str(),
		Body:     d.body(kind),
	}
	if d.pos != len(d.b) {
		d.fail(fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(d.b)-d.pos))
	}
	return env
}

// box puts b into a Body on the decoding pass; the sizing pass boxes
// nothing, as a box is an allocation.
func box[B Body](d *decoder, b B) Body {
	if d.sizing {
		return nil
	}
	return b
}

func (d *decoder) body(kind byte) Body {
	switch kind {
	case kindFragmentQuery:
		return box(d, FragmentQuery{Labels: d.labels(), Describe: d.bool()})
	case kindFragmentReply:
		return box(d, FragmentReply{Fragments: d.fragments(), Capabilities: d.capabilities()})
	case kindFeasibilityQuery:
		return box(d, FeasibilityQuery{Tasks: d.taskIDs()})
	case kindFeasibilityReply:
		return box(d, FeasibilityReply{Capable: d.taskIDs()})
	case kindAward:
		return box(d, Award{Meta: d.meta(), More: d.metas(), Hold: d.bool(), Routes: d.routes()})
	case kindAwardAck:
		return box(d, AwardAck{Refused: d.refusals()})
	case kindCancel:
		return box(d, Cancel{Tasks: d.taskIDs()})
	case kindPlan:
		return box(d, Plan{Segments: d.segments()})
	case kindLabelTransfer:
		return box(d, LabelTransfer{Label: model.LabelID(d.str()), Data: d.bytes(), Producer: Addr(d.str())})
	case kindTaskDone:
		return box(d, TaskDone{Task: model.TaskID(d.str()), Err: d.str()})
	case kindAck:
		return box(d, Ack{})
	case kindCallForBidsBatch:
		return box(d, CallForBidsBatch{Metas: d.metas()})
	case kindBidBatch:
		return box(d, BidBatch{Bids: d.bids(), Declines: d.taskIDs()})
	case kindLeaseRefresh:
		return box(d, LeaseRefresh{Tasks: d.taskIDs()})
	case kindLeaseRefreshAck:
		return box(d, LeaseRefreshAck{Missing: d.taskIDs(), Finished: d.taskIDs()})
	case kindAdvertise:
		return box(d, Advertise{Labels: d.labels(), Tasks: d.taskIDs()})
	case kindAdvertiseAck:
		return box(d, AdvertiseAck{Labels: d.labels(), Tasks: d.taskIDs()})
	default:
		d.fail(fmt.Errorf("%w: unknown body kind %d", errCorrupt, kind))
		return nil
	}
}
