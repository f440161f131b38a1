// Hand-rolled binary wire codec — the sole wire format (the gob oracle
// that shipped alongside it for one release is gone; the golden
// wire-bytes and fuzz tests below are the codec's correctness pins).
//
// Frame layout, documented in DESIGN.md §"Wire format":
//
//	version byte (wireVersion)
//	kind byte (one of the kind* constants, tagging the body type)
//	From, To   string
//	ReqID      uvarint
//	Workflow   string
//	body fields, in struct order
//
// Primitives: uvarint is unsigned LEB128 (encoding/binary layout); varint
// is zigzag-encoded; string and []byte are uvarint length + raw bytes;
// bool is one byte (0/1); float64 is 8 big-endian bytes of its IEEE 754
// bits; time.Time is varint Unix seconds + uvarint nanoseconds (the
// instant only — wall offset and monotonic readings do not survive the
// wire, matching what the envelope consumers compare with time.Equal).
// Slices are uvarint count + elements; no body carries a map. A pointer
// field (FragmentReply.Capabilities) is a presence bool, then the fields
// when present. Every field is always written: one layout per body, and a
// layout change bumps wireVersion.
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
	"time"

	"openwf/internal/model"
	"openwf/internal/space"
)

// wireVersion is the first byte of every binary frame. Bump it when the
// layout changes; decoders reject versions they do not understand.
const wireVersion byte = 6

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

// encodeBinary appends the binary encoding of env to buf.
func encodeBinary(buf *bytes.Buffer, env Envelope) error {
	if env.Body == nil {
		return fmt.Errorf("encoding envelope: nil body")
	}
	e := encoder{buf: buf}
	e.byte(wireVersion)
	if err := e.body(env); err != nil {
		return fmt.Errorf("encoding %s envelope: %w", env.Body.Kind(), err)
	}
	return nil
}

// encoder wraps the output buffer with varint scratch space so that
// encoding performs no allocations of its own.
type encoder struct {
	buf     *bytes.Buffer
	scratch [binary.MaxVarintLen64]byte
}

func (e *encoder) byte(b byte) { e.buf.WriteByte(b) }
func (e *encoder) uint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.buf.Write(e.scratch[:n])
}
func (e *encoder) int(v int64) {
	n := binary.PutVarint(e.scratch[:], v)
	e.buf.Write(e.scratch[:n])
}
func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.buf.WriteString(s)
}
func (e *encoder) bytes(b []byte) {
	e.uint(uint64(len(b)))
	e.buf.Write(b)
}
func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}
func (e *encoder) f64(v float64) {
	binary.BigEndian.PutUint64(e.scratch[:8], math.Float64bits(v))
	e.buf.Write(e.scratch[:8])
}

// time encodes the instant: varint Unix seconds plus uvarint nanoseconds.
func (e *encoder) time(t time.Time) {
	e.int(t.Unix())
	e.uint(uint64(t.Nanosecond()))
}

func (e *encoder) labels(ls []model.LabelID) {
	e.uint(uint64(len(ls)))
	for _, l := range ls {
		e.str(string(l))
	}
}

func (e *encoder) taskIDs(ts []model.TaskID) {
	e.uint(uint64(len(ts)))
	for _, t := range ts {
		e.str(string(t))
	}
}

func (e *encoder) task(t model.Task) {
	e.str(string(t.ID))
	e.uint(uint64(t.Mode))
	e.labels(t.Inputs)
	e.labels(t.Outputs)
}

func (e *encoder) fragment(f *model.Fragment) error {
	if f == nil {
		return errors.New("nil fragment") // gob rejects nil pointers too
	}
	e.str(f.Name)
	e.uint(uint64(len(f.Tasks)))
	for _, t := range f.Tasks {
		e.task(t)
	}
	return nil
}

func (e *encoder) point(p space.Point) {
	e.f64(p.X)
	e.f64(p.Y)
}

func (e *encoder) meta(m TaskMeta) {
	e.str(string(m.Task))
	e.uint(uint64(m.Mode))
	e.labels(m.Inputs)
	e.labels(m.Outputs)
	e.time(m.Start)
	e.time(m.End)
	e.point(m.Location)
	e.bool(m.HasLocation)
}

func (e *encoder) metas(ms []TaskMeta) {
	e.uint(uint64(len(ms)))
	for _, m := range ms {
		e.meta(m)
	}
}

func (e *encoder) routes(rs []Route) {
	e.uint(uint64(len(rs)))
	for _, r := range rs {
		e.str(string(r.Label))
		e.str(string(r.To))
	}
}

// body writes the kind tag, envelope header, and body fields.
func (e *encoder) body(env Envelope) error {
	switch v := env.Body.(type) {
	case FragmentQuery:
		e.header(kindFragmentQuery, env)
		e.labels(v.Labels)
		e.bool(v.Describe)
	case FragmentReply:
		e.header(kindFragmentReply, env)
		e.uint(uint64(len(v.Fragments)))
		for _, f := range v.Fragments {
			if err := e.fragment(f); err != nil {
				return err
			}
		}
		e.bool(v.Capabilities != nil)
		if c := v.Capabilities; c != nil {
			e.labels(c.Labels)
			e.taskIDs(c.Tasks)
		}
	case FeasibilityQuery:
		e.header(kindFeasibilityQuery, env)
		e.taskIDs(v.Tasks)
	case FeasibilityReply:
		e.header(kindFeasibilityReply, env)
		e.taskIDs(v.Capable)
	case Award:
		e.header(kindAward, env)
		e.meta(v.Meta)
		e.metas(v.More)
		e.bool(v.Hold)
		e.routes(v.Routes)
	case AwardAck:
		e.header(kindAwardAck, env)
		e.uint(uint64(len(v.Verdicts)))
		for _, x := range v.Verdicts {
			e.str(string(x.Task))
			e.bool(x.OK)
			e.str(x.Reason)
		}
	case Cancel:
		e.header(kindCancel, env)
		e.taskIDs(v.Tasks)
	case Plan:
		e.header(kindPlan, env)
		e.uint(uint64(len(v.Segments)))
		for _, s := range v.Segments {
			e.str(string(s.Task))
			e.str(string(s.Initiator))
			e.routes(s.Routes)
		}
	case LabelTransfer:
		e.header(kindLabelTransfer, env)
		e.str(string(v.Label))
		e.bytes(v.Data)
		e.str(string(v.Producer))
	case TaskDone:
		e.header(kindTaskDone, env)
		e.str(string(v.Task))
		e.str(v.Err)
	case Ack:
		e.header(kindAck, env)
	case CallForBidsBatch:
		e.header(kindCallForBidsBatch, env)
		e.metas(v.Metas)
	case BidBatch:
		e.header(kindBidBatch, env)
		e.uint(uint64(len(v.Bids)))
		for _, b := range v.Bids {
			e.bid(b)
		}
		e.taskIDs(v.Declines)
	case LeaseRefresh:
		e.header(kindLeaseRefresh, env)
		e.taskIDs(v.Tasks)
	case LeaseRefreshAck:
		e.header(kindLeaseRefreshAck, env)
		e.taskIDs(v.Missing)
		e.taskIDs(v.Finished)
	case Advertise:
		e.header(kindAdvertise, env)
		e.labels(v.Labels)
		e.taskIDs(v.Tasks)
	case AdvertiseAck:
		e.header(kindAdvertiseAck, env)
		e.labels(v.Labels)
		e.taskIDs(v.Tasks)
	default:
		return fmt.Errorf("unregistered body type %T", env.Body)
	}
	return nil
}

// bid writes one Bid's fields.
func (e *encoder) bid(b Bid) {
	e.str(string(b.Task))
	e.int(int64(b.ServicesOffered))
	e.f64(b.Specialization)
	e.time(b.Deadline)
}

// header writes the kind tag and the envelope routing fields.
func (e *encoder) header(kind byte, env Envelope) {
	e.byte(kind)
	e.str(string(env.From))
	e.str(string(env.To))
	e.uint(env.ReqID)
	e.str(env.Workflow)
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

// decodeBinary decodes a frame produced by encodeBinary. It fully copies:
// nothing in the returned envelope aliases data, so callers may recycle
// the input buffer immediately (the transports' read paths rely on this;
// TestDecodeCopiesInput and TestDecodeLargeFrameCopiesInput assert it).
func decodeBinary(data []byte) (Envelope, error) {
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
	// s is a small frame's one copy (decodeBinary); empty for a large one.
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

func (d *decoder) meta() TaskMeta {
	return TaskMeta{
		Task:        model.TaskID(d.str()),
		Mode:        model.Mode(d.uint()),
		Inputs:      d.labels(),
		Outputs:     d.labels(),
		Start:       d.time(),
		End:         d.time(),
		Location:    space.Point{X: d.f64(), Y: d.f64()},
		HasLocation: d.bool(),
	}
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

func (d *decoder) verdicts() []Verdict {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]Verdict, n)
	for i := 0; i < n && d.err == nil; i++ {
		out[i] = Verdict{Task: model.TaskID(d.str()), OK: d.bool(), Reason: d.str()}
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
		return AwardAck{Verdicts: d.verdicts()}
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
