package proto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"openwf/internal/model"
)

// One message per peer per phase: an Award carries all of a winner's tasks
// and, when every task was decided at once, their routes; its AwardAck a
// verdict per task; a Plan all of an executor's segments; and a
// CallForBidsBatch every task of the session. Each list is a count and its
// elements. The rows below are the wire
// contract for them and the corpus FuzzEnvelopeRoundTrip is seeded with.

func groupMeta(task model.TaskID, at int64) TaskMeta {
	return TaskMeta{
		Task: task, Mode: model.Conjunctive,
		Inputs: []model.LabelID{"a"}, Outputs: []model.LabelID{"b"},
		Start: time.Unix(at, 0), End: time.Unix(at+1, 0),
	}
}

func groupSegment(task model.TaskID, to Addr) PlanSegment {
	return PlanSegment{Task: task, Initiator: "i", Routes: []Route{{Label: "b", To: to}}}
}

func groupEnv(from, to Addr, body Body) Envelope {
	return Envelope{From: from, To: to, ReqID: 9, Workflow: "wf", Body: body}
}

// groupAward3 is a three-task award.
func groupAward3() Award {
	return Award{Meta: groupMeta("t1", 1), More: []TaskMeta{groupMeta("t2", 2), groupMeta("t3", 3)}}
}

// groupEnvelopes returns a held three-task award carrying two routes, its
// verdicts with one refusal and the reason, a three-segment plan, and a
// call for bids on two tasks.
func groupEnvelopes() (award, ack, plan, cfb Envelope) {
	held := groupAward3()
	held.Routes, held.Hold = []Route{{Label: "b", To: "h"}, {Label: "b", To: "i"}}, true
	return groupEnv("i", "h", held),
		groupEnv("h", "i", AwardAck{Verdicts: []Verdict{{Task: "t1", OK: true}, {Task: "t2", Reason: "no"}, {Task: "t3", OK: true}}}),
		groupEnv("i", "h", Plan{Segments: []PlanSegment{groupSegment("t1", "h"), groupSegment("t2", "h"), groupSegment("t3", "i")}}),
		groupEnv("i", "h", CallForBidsBatch{Metas: []TaskMeta{groupMeta("t1", 1), groupMeta("t2", 2)}})
}

// TestWireFormatGoldenGroups pins the lists of the one-message-per-peer
// bodies: an award is its first task's meta, then a count and the further
// metas, then the hold byte, then a count and the routes (label, host); an
// ack a count and the verdicts; a plan a count and the segments, each its
// task, initiator, and a count and the routes; a call for bids a count and
// its metas. Update the constants only with a wireVersion bump.
func TestWireFormatGoldenGroups(t *testing.T) {
	const (
		noLocation = "00000000000000000000000000000000" + "00"         // point (0, 0), HasLocation false
		ioAB       = "01" + "0161" + "01" + "0162"                     // inputs ["a"], outputs ["b"]
		award      = "05" + "08" + "0169" + "0168" + "09" + "027766" + // version, kind award, header i, h, 9, wf
			"027431" + "01" + ioAB + "0200" + "0400" + noLocation // t1, conjunctive, window [1 s, 2 s)
		more2 = "02" +
			"027432" + "01" + ioAB + "0400" + "0600" + noLocation + // t2, window [2 s, 3 s)
			"027433" + "01" + ioAB + "0600" + "0800" + noLocation // t3, window [3 s, 4 s)
		ack  = "05" + "09" + "0168" + "0169" + "09" + "027766" // kind award-ack
		t1OK = "027431" + "01" + "00"                          // t1 confirmed, no reason
		plan = "05" + "0b" + "0169" + "0168" + "09" + "027766" // kind plan-segment
		seg1 = "027431" + "0169" +                             // t1, initiator i
			"01" + "0162" + "0168" // route b to h
		cfb = "05" + "0f" + "0169" + "0168" + "09" + "027766" + "02" + // kind call-for-bids-batch, two metas
			"027431" + "01" + ioAB + "0200" + "0400" + noLocation +
			"027432" + "01" + ioAB + "0400" + "0600" + noLocation
		verdicts3 = "03" + t1OK +
			"027432" + "00" + "026e6f" + // t2 refused: "no"
			"027433" + "01" + "00" // t3 confirmed
	)
	heldOf3, ackOf3, planOf3, cfb2 := groupEnvelopes()
	routedOf3 := heldOf3.Body.(Award)
	routedOf3.Hold = false
	ackOf1 := groupEnv("h", "i", AwardAck{Verdicts: []Verdict{{Task: "t1", OK: true}}})
	const routes2 = "02" + "0162" + "0168" + "0162" + "0169" // b to h, b to i
	checkGolden(t, []goldenRow{
		{"award-of-one", groupEnv("i", "h", Award{Meta: groupMeta("t1", 1)}), award + "00" + "00" + "00"},
		{"award-of-three", groupEnv("i", "h", groupAward3()), award + more2 + "00" + "00"},
		{"award-of-three-routed", groupEnv("i", "h", routedOf3), award + more2 + "00" + routes2},
		{"award-of-three-held", heldOf3, award + more2 + "01" + routes2},
		{"verdict-of-one", ackOf1, ack + "01" + t1OK},
		{"verdicts-of-three", ackOf3, ack + verdicts3},
		{"plan-of-one", groupEnv("i", "h", Plan{Segments: []PlanSegment{groupSegment("t1", "h")}}), plan + "01" + seg1},
		{"plan-of-three", planOf3, plan + "03" + seg1 +
			"027432" + "0169" + "01" + "0162" + "0168" + // t2: b to h
			"027433" + "0169" + "01" + "0162" + "0169"}, // t3: b to i
		{"call-for-bids", cfb2, cfb},
	})
}

// TestListsRejectCorruptFrames: a list cut short anywhere is a truncated
// or corrupt frame, one whose count says one element more than follow is a
// truncated one, and one whose count exceeds the bytes that follow is a
// corrupt one — the decoder's two error classes, no third.
func TestListsRejectCorruptFrames(t *testing.T) {
	award, ack, plan, cfb := groupEnvelopes()
	unrouted := award.Body.(Award)
	unrouted.Routes = nil
	for _, c := range []listCase{
		{"award-more", groupEnv("i", "h", groupAward3()), groupEnv("i", "h", Award{Meta: groupMeta("t1", 1)})},
		{"award-routes", award, groupEnv("i", "h", unrouted)},
		{"verdicts", ack, groupEnv("h", "i", AwardAck{})},
		{"segments", plan, groupEnv("i", "h", Plan{})},
		{"metas", cfb, groupEnv("i", "h", CallForBidsBatch{})},
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

// listCase is a list of a body. with is the envelope carrying it, without
// the same envelope with that list empty: their frames part at the list's
// count, zero in without.
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
	at := 0 // the list's count byte
	for at < len(empty) && at < len(data) && empty[at] == data[at] {
		at++
	}
	if at == len(empty) || at == len(data) || empty[at] != 0 {
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
