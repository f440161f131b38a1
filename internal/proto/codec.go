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
// buffer performs zero allocations, and decoding a small frame performs a
// small constant number (one copy of the frame as a string whose
// substrings back every decoded string field, plus the envelope's
// slices); a large frame is read in place, one copy per field.
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

// cloneThreshold bounds the substring-sharing optimization below: above
// it, decoded strings are copied out one by one so a small retained field
// (a label used as a map key, say) cannot pin a frame-sized backing array
// — a LabelTransfer frame may approach transport.MaxFrame, while its Label
// is bytes.
const cloneThreshold = 4 << 10

// Decode decodes a frame produced by EncodeTo. It fully copies: nothing
// in the returned envelope aliases data, so callers may recycle the input
// buffer immediately (the transports' read paths rely on this;
// TestDecodeCopiesInput and TestDecodeLargeFrameCopiesInput assert it).
func Decode(data []byte) (Envelope, error) {
	// A small frame is copied once, whole, into an immutable string whose
	// substrings back every decoded string field: a small constant number
	// of allocations. A large frame is read in place, and each field is
	// copied out on its own (cloneThreshold).
	d := decoder{b: data}
	if len(data) <= cloneThreshold {
		d.s = string(data)
	}
	env, err := d.envelope()
	if err != nil {
		return Envelope{}, fmt.Errorf("decoding envelope: %w", err)
	}
	return env, nil
}

// decoder reads one frame. It keeps the first error it meets: every read
// after that returns the zero value and consumes nothing, and a counted
// loop stops, so a body is decoded as one composite literal and the error
// is looked at once, in envelope. Element decoders are written out per
// type rather than passed as func values — a func argument makes the
// decoder escape, one allocation on every frame (TestDecodeAllocBounds).
type decoder struct {
	b   []byte
	pos int
	// s is a small frame's one copy (Decode); empty for a large one.
	s string
	// labs is the frame's label slab: every label list is a window of it,
	// its capacity capped, so appending to one list copies it instead of
	// overwriting the next (reserve).
	labs []model.LabelID
	err  error
}

// reserve makes room for n more labels in the slab. A full slab is
// replaced by one of twice its capacity, or of n if that is more; the
// windows already handed out keep the old one.
func (d *decoder) reserve(n int) {
	if cap(d.labs)-len(d.labs) < n {
		d.labs = make([]model.LabelID, 0, max(n, 2*cap(d.labs)))
	}
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
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b := d.byte()
		if d.err != nil {
			return 0
		}
		if b < 0x80 {
			if shift == 63 && b > 1 {
				d.err = fmt.Errorf("%w: uvarint overflow", errCorrupt)
				return 0
			}
			return v | uint64(b)<<shift
		}
		v |= uint64(b&0x7f) << shift
	}
	d.err = fmt.Errorf("%w: uvarint too long", errCorrupt)
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

// str shares a small frame's string and copies out of a large one.
func (d *decoder) str() string {
	n := d.count()
	i := d.pos
	d.pos += n
	if d.s != "" {
		return d.s[i:d.pos]
	}
	return string(d.b[i:d.pos])
}

// bytes returns a fresh copy (a []byte must not alias the frame), read
// straight from b: that one copy is all a payload costs, small frame or
// large.
func (d *decoder) bytes() []byte {
	n := d.count()
	if n == 0 {
		return nil
	}
	i := d.pos
	d.pos += n
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
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec))
}

// labels decodes a label list into a window of the slab; zero count
// yields nil, like gob leaving a slice field untouched.
func (d *decoder) labels() []model.LabelID {
	n := d.count()
	if n == 0 {
		return nil
	}
	d.reserve(n)
	i := len(d.labs)
	for j := 0; j < n && d.err == nil; j++ {
		d.labs = append(d.labs, model.LabelID(d.str()))
	}
	return d.labs[i:len(d.labs):len(d.labs)]
}

func (d *decoder) taskIDs() []model.TaskID {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]model.TaskID, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = model.TaskID(d.str())
	}
	return out
}

func (d *decoder) task() model.Task {
	return model.Task{
		ID:      model.TaskID(d.str()),
		Mode:    model.Mode(d.uint()),
		Inputs:  d.labels(),
		Outputs: d.labels(),
	}
}

func (d *decoder) fragments() []*model.Fragment {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]*model.Fragment, n)
	for i := 0; i < n && d.err == nil; i++ {
		f := &model.Fragment{Name: d.str()}
		if m := d.count(); m > 0 {
			f.Tasks = make([]model.Task, m)
			for j := 0; j < m && d.err == nil; j++ {
				f.Tasks[j] = d.task()
			}
		}
		out[i] = f
	}
	return out
}

// meta allocates a point only for a located meta; the point of one that
// is not located is read and dropped.
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
		m.Location = &space.Point{X: x, Y: y}
	}
	return m
}

// metas reserves two labels per meta, an input and an output, so a call
// for bids or an award costs one slab, not two lists per task.
func (d *decoder) metas() []TaskMeta {
	n := d.count()
	if n == 0 {
		return nil
	}
	d.reserve(2 * n)
	out := make([]TaskMeta, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = d.meta()
	}
	return out
}

// refusals reads an ack's refused tasks; none is a nil list.
func (d *decoder) refusals() []Verdict {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]Verdict, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = Verdict{Task: model.TaskID(d.str()), Reason: d.str()}
	}
	return out
}

func (d *decoder) segments() []PlanSegment {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]PlanSegment, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = PlanSegment{
			Task:      model.TaskID(d.str()),
			Initiator: Addr(d.str()),
			Routes:    d.routes(),
		}
	}
	return out
}

func (d *decoder) routes() []Route {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]Route, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = Route{Label: model.LabelID(d.str()), To: Addr(d.str())}
	}
	return out
}

// capabilities reads a presence bool and, when set, the capability set.
func (d *decoder) capabilities() *Advertise {
	if !d.bool() {
		return nil
	}
	return &Advertise{Labels: d.labels(), Tasks: d.taskIDs()}
}

func (d *decoder) bids() []Bid {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]Bid, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = Bid{
			Task:            model.TaskID(d.str()),
			ServicesOffered: int(d.int()),
			Specialization:  d.f64(),
			Deadline:        d.time(),
		}
	}
	return out
}

// envelope decodes the whole frame: version byte, one kind-tagged
// envelope, nothing after it.
func (d *decoder) envelope() (Envelope, error) {
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
	return env, d.err
}

func (d *decoder) body(kind byte) Body {
	switch kind {
	case kindFragmentQuery:
		return FragmentQuery{Labels: d.labels(), Describe: d.bool()}
	case kindFragmentReply:
		return FragmentReply{Fragments: d.fragments(), Capabilities: d.capabilities()}
	case kindFeasibilityQuery:
		return FeasibilityQuery{Tasks: d.taskIDs()}
	case kindFeasibilityReply:
		return FeasibilityReply{Capable: d.taskIDs()}
	case kindAward:
		d.reserve(2)
		return Award{Meta: d.meta(), More: d.metas(), Hold: d.bool(), Routes: d.routes()}
	case kindAwardAck:
		return AwardAck{Refused: d.refusals()}
	case kindCancel:
		return Cancel{Tasks: d.taskIDs()}
	case kindPlan:
		return Plan{Segments: d.segments()}
	case kindLabelTransfer:
		return LabelTransfer{Label: model.LabelID(d.str()), Data: d.bytes(), Producer: Addr(d.str())}
	case kindTaskDone:
		return TaskDone{Task: model.TaskID(d.str()), Err: d.str()}
	case kindAck:
		return Ack{}
	case kindCallForBidsBatch:
		return CallForBidsBatch{Metas: d.metas()}
	case kindBidBatch:
		return BidBatch{Bids: d.bids(), Declines: d.taskIDs()}
	case kindLeaseRefresh:
		return LeaseRefresh{Tasks: d.taskIDs()}
	case kindLeaseRefreshAck:
		return LeaseRefreshAck{Missing: d.taskIDs(), Finished: d.taskIDs()}
	case kindAdvertise:
		return Advertise{Labels: d.labels(), Tasks: d.taskIDs()}
	case kindAdvertiseAck:
		return AdvertiseAck{Labels: d.labels(), Tasks: d.taskIDs()}
	default:
		d.fail(fmt.Errorf("%w: unknown body kind %d", errCorrupt, kind))
		return nil
	}
}
