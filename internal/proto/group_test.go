package proto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"openwf/internal/model"
)

// One message per peer per phase: an Award carries all of a winner's tasks,
// its AwardAck a verdict per task, a Plan all of an executor's segments, and
// a CallForBidsBatch names the tasks it awards as they are bid for (Sole).
// Each list is a count and its elements. The rows below are the wire
// contract for them and the corpus FuzzEnvelopeRoundTrip is seeded with.

func groupMeta(task model.TaskID, at int64) TaskMeta {
	return TaskMeta{
		Task: task, Mode: model.Conjunctive,
		Inputs: []model.LabelID{"a"}, Outputs: []model.LabelID{"b"},
		Start: time.Unix(at, 0), End: time.Unix(at+1, 0),
	}
}

func groupSegment(task model.TaskID, from, to Addr) PlanSegment {
	return PlanSegment{
		Task: task, Initiator: "i",
		InputSources: map[model.LabelID]Addr{"a": from},
		OutputSinks:  map[model.LabelID][]Addr{"b": {to}},
	}
}

func groupEnv(from, to Addr, body Body) Envelope {
	return Envelope{From: from, To: to, ReqID: 9, Workflow: "wf", Body: body}
}

// groupEnvelopes returns a three-task award, its verdicts with one refusal
// and the reason, a three-segment plan, and a call for bids on two tasks
// that awards the second.
func groupEnvelopes() (award, ack, plan, cfb Envelope) {
	return groupEnv("i", "h", Award{Meta: groupMeta("t1", 1), More: []TaskMeta{groupMeta("t2", 2), groupMeta("t3", 3)}}),
		groupEnv("h", "i", AwardAck{Verdicts: []Verdict{{Task: "t1", OK: true}, {Task: "t2", Reason: "no"}, {Task: "t3", OK: true}}}),
		groupEnv("i", "h", Plan{Segments: []PlanSegment{groupSegment("t1", "i", "h"), groupSegment("t2", "h", "h"), groupSegment("t3", "h", "i")}}),
		groupEnv("i", "h", CallForBidsBatch{Metas: []TaskMeta{groupMeta("t1", 1), groupMeta("t2", 2)}, Sole: []model.TaskID{"t2"}})
}

// TestWireFormatGoldenGroups pins the lists of the one-message-per-peer
// bodies: an award is its first task's meta, then a count and the further
// metas; an ack a count and the verdicts; a plan a count and the segments;
// a call for bids its metas, then a count and the Sole task names. Update
// the constants only with a wireVersion bump.
func TestWireFormatGoldenGroups(t *testing.T) {
	const (
		noLocation = "00000000000000000000000000000000" + "00"         // point (0, 0), HasLocation false
		ioAB       = "01" + "0161" + "01" + "0162"                     // inputs ["a"], outputs ["b"]
		award      = "02" + "08" + "0169" + "0168" + "09" + "027766" + // version, kind award, header i, h, 9, wf
			"027431" + "01" + ioAB + "0200" + "0400" + noLocation // t1, conjunctive, window [1 s, 2 s)
		ack  = "02" + "09" + "0168" + "0169" + "09" + "027766" // kind award-ack
		t1OK = "027431" + "01" + "00"                          // t1 confirmed, no reason
		plan = "02" + "0b" + "0169" + "0168" + "09" + "027766" // kind plan-segment
		seg1 = "027431" + "0169" +                             // t1, initiator i
			"01" + "0161" + "0169" + // input a from i
			"01" + "0162" + "01" + "0168" // output b to [h]
		cfb = "02" + "0f" + "0169" + "0168" + "09" + "027766" + "02" + // kind call-for-bids-batch, two metas
			"027431" + "01" + ioAB + "0200" + "0400" + noLocation +
			"027432" + "01" + ioAB + "0400" + "0600" + noLocation
		verdicts3 = "03" + t1OK +
			"027432" + "00" + "026e6f" + // t2 refused: "no"
			"027433" + "01" + "00" // t3 confirmed
	)
	awardOf3, ackOf3, planOf3, cfbSole := groupEnvelopes()
	ackOf1 := groupEnv("h", "i", AwardAck{Verdicts: []Verdict{{Task: "t1", OK: true}}})
	checkGolden(t, []goldenRow{
		{"award-of-one", groupEnv("i", "h", Award{Meta: groupMeta("t1", 1)}), award + "00"},
		{"award-of-three", awardOf3, award + "02" +
			"027432" + "01" + ioAB + "0400" + "0600" + noLocation + // t2, window [2 s, 3 s)
			"027433" + "01" + ioAB + "0600" + "0800" + noLocation}, // t3, window [3 s, 4 s)
		{"verdict-of-one", ackOf1, ack + "01" + t1OK},
		{"verdicts-of-three", ackOf3, ack + verdicts3},
		{"plan-of-one", groupEnv("i", "h", Plan{Segments: []PlanSegment{groupSegment("t1", "i", "h")}}), plan + "01" + seg1},
		{"plan-of-three", planOf3, plan + "03" + seg1 +
			"027432" + "0169" + "01" + "0161" + "0168" + "01" + "0162" + "01" + "0168" + // t2: a from h, b to [h]
			"027433" + "0169" + "01" + "0161" + "0168" + "01" + "0162" + "01" + "0169"}, // t3: a from h, b to [i]
		{"call-for-bids", groupEnv("i", "h", CallForBidsBatch{Metas: cfbSole.Body.(CallForBidsBatch).Metas}), cfb + "00"},
		{"call-for-bids-awarding-one", cfbSole, cfb + "01" + "027432"}, // t2 is the recipient's alone
		{"groups-inside-batch", Envelope{From: "i", To: "h", Body: EnvelopeBatch{Envelopes: []Envelope{ackOf3, ackOf1}}},
			"02" + "11" + "0169" + "0168" + "00" + "00" + "02" + // batch header i, h, 0, "", 2 envelopes
				ack[2:] + verdicts3 + // the list ends …
				ack[2:] + "01" + t1OK}, // … where the next envelope's kind tag begins
	})
}

// TestListsRejectCorruptFrames: a list cut short anywhere is a truncated
// or corrupt frame, one whose count says one element more than follow is a
// truncated one, and one whose count exceeds the bytes that follow is a
// corrupt one — the decoder's two error classes, no third.
func TestListsRejectCorruptFrames(t *testing.T) {
	award, ack, plan, cfb := groupEnvelopes()
	for _, c := range []listCase{
		{"award-more", award, groupEnv("i", "h", Award{Meta: groupMeta("t1", 1)})},
		{"verdicts", ack, groupEnv("h", "i", AwardAck{})},
		{"segments", plan, groupEnv("i", "h", Plan{})},
		{"sole", cfb, groupEnv("i", "h", CallForBidsBatch{Metas: cfb.Body.(CallForBidsBatch).Metas})},
	} {
		t.Run(c.name, c.check)
	}
}

// TestCapabilitiesRejectCorruptFrames: a capability set's task list is
// bounded as every other list is, and its presence byte is 0 or 1 — any
// other value is a corrupt frame.
func TestCapabilitiesRejectCorruptFrames(t *testing.T) {
	reply := groupEnv("h", "i", FragmentReply{Capabilities: &Advertise{Labels: []model.LabelID{"a"}, Tasks: []model.TaskID{"t", "u"}}})
	c := listCase{"capability-tasks", reply, groupEnv("h", "i", FragmentReply{Capabilities: &Advertise{Labels: []model.LabelID{"a"}}})}
	t.Run(c.name, c.check)
	undescribed, err := binEncode(groupEnv("h", "i", FragmentReply{}))
	if err != nil {
		t.Fatal(err)
	}
	undescribed[len(undescribed)-1] = 2 // the presence byte
	if _, err := binDecode(undescribed); !errors.Is(err, errCorrupt) {
		t.Errorf("presence byte 2: err = %v, want a corrupt frame", err)
	}
}

// listCase is a list that is the last field of its body. with is the
// envelope carrying it, without the same envelope with that list empty,
// whose frame ends in the list's zero count.
type listCase struct {
	name          string
	with, without Envelope
}

func (c listCase) check(t *testing.T) {
	data, err := binEncode(c.with)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := binEncode(c.without)
	if err != nil {
		t.Fatal(err)
	}
	at := len(empty) - 1 // the list's count byte
	if !bytes.HasPrefix(data, empty[:at]) || empty[at] != 0 || data[at] == 0 {
		t.Fatalf("frame %s does not carry its list at byte %d", hex.EncodeToString(data), at)
	}
	for n := at; n < len(data); n++ {
		if _, err := binDecode(data[:n]); !errors.Is(err, errTruncated) && !errors.Is(err, errCorrupt) {
			t.Errorf("list truncated to %d of %d bytes: err = %v", n, len(data), err)
		}
	}
	over := bytes.Clone(data)
	over[at]++
	if _, err := binDecode(over); !errors.Is(err, errTruncated) {
		t.Errorf("count one over the elements: err = %v, want a truncated frame", err)
	}
	absurd := append(bytes.Clone(data[:at]), 0xff, 0xff, 0x03)
	if _, err := binDecode(absurd); !errors.Is(err, errCorrupt) {
		t.Errorf("absurd count: err = %v, want a corrupt frame", err)
	}
}
