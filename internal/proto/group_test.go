package proto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"openwf/internal/model"
)

// One message per peer per phase: an Award, its AwardAck and a PlanSegment
// carry a winner's or an executor's further tasks in an optional trailing
// section (More), and a CallForBidsBatch names there the tasks it awards as
// they are bid for (Sole). The rows below are the wire contract for it and
// the corpus FuzzEnvelopeRoundTrip is seeded with.

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
	segs := groupSegment("t1", "i", "h")
	segs.More = []PlanSegment{groupSegment("t2", "h", "h"), groupSegment("t3", "h", "i")}
	return groupEnv("i", "h", Award{Meta: groupMeta("t1", 1), More: []TaskMeta{groupMeta("t2", 2), groupMeta("t3", 3)}}),
		groupEnv("h", "i", AwardAck{Task: "t1", OK: true, More: []AwardAck{{Task: "t2", Reason: "no"}, {Task: "t3", OK: true}}}),
		groupEnv("i", "h", segs),
		groupEnv("i", "h", CallForBidsBatch{Metas: []TaskMeta{groupMeta("t1", 1), groupMeta("t2", 2)}, Sole: []model.TaskID{"t2"}})
}

// TestWireFormatGoldenGroups pins the More sections. Each row's frame is
// the frame of its first element alone — the bytes a one-task award, a
// one-verdict ack and a one-segment plan always had — followed by one
// optSection byte, a count, and the further elements in the same layout;
// the call for bids' is the frame it always had, the section byte, a count
// and the task names. Update the constants only with a wireVersion bump.
func TestWireFormatGoldenGroups(t *testing.T) {
	const (
		noLocation = "00000000000000000000000000000000" + "00"         // point (0, 0), HasLocation false
		ioAB       = "01" + "0161" + "01" + "0162"                     // inputs ["a"], outputs ["b"]
		award1     = "01" + "08" + "0169" + "0168" + "09" + "027766" + // version, kind award, header i, h, 9, wf
			"027431" + "01" + ioAB + "0200" + "0400" + noLocation // t1, conjunctive, window [1 s, 2 s)
		ack1  = "01" + "09" + "0168" + "0169" + "09" + "027766" + "027431" + "01" + "00" // kind award-ack: t1, OK, no reason
		plan1 = "01" + "0b" + "0169" + "0168" + "09" + "027766" +                        // kind plan-segment
			"027431" + "0169" + // t1, initiator i
			"01" + "0161" + "0169" + // input a from i
			"01" + "0162" + "01" + "0168" // output b to [h]
	)
	const cfb2 = "01" + "0f" + "0169" + "0168" + "09" + "027766" + "02" + // kind call-for-bids-batch, two metas
		"027431" + "01" + ioAB + "0200" + "0400" + noLocation +
		"027432" + "01" + ioAB + "0400" + "0600" + noLocation
	award, ack, plan, cfb := groupEnvelopes()
	ackOfOne := groupEnv("h", "i", AwardAck{Task: "t1", OK: true})
	rows := []struct {
		name string
		env  Envelope
		want string
	}{
		{"award-of-one", groupEnv("i", "h", Award{Meta: groupMeta("t1", 1)}), award1},
		{"award-of-three", award, award1 + "ff" + "02" +
			"027432" + "01" + ioAB + "0400" + "0600" + noLocation + // t2, window [2 s, 3 s)
			"027433" + "01" + ioAB + "0600" + "0800" + noLocation}, // t3, window [3 s, 4 s)
		{"verdict-of-one", ackOfOne, ack1},
		{"verdicts-of-three", ack, ack1 + "ff" + "02" +
			"027432" + "00" + "026e6f" + // t2 refused: "no"
			"027433" + "01" + "00"}, // t3 confirmed
		{"plan-of-one", groupEnv("i", "h", groupSegment("t1", "i", "h")), plan1},
		{"plan-of-three", plan, plan1 + "ff" + "02" +
			"027432" + "0169" + "01" + "0161" + "0168" + "01" + "0162" + "01" + "0168" + // t2: a from h, b to [h]
			"027433" + "0169" + "01" + "0161" + "0168" + "01" + "0162" + "01" + "0169"}, // t3: a from h, b to [i]
		{"call-for-bids", groupEnv("i", "h", CallForBidsBatch{Metas: cfb.Body.(CallForBidsBatch).Metas}), cfb2},
		{"call-for-bids-awarding-one", cfb, cfb2 + "ff" + "01" + "027432"}, // t2 is the recipient's alone
		{"groups-inside-batch", Envelope{From: "i", To: "h", Body: EnvelopeBatch{Envelopes: []Envelope{ack, ackOfOne}}},
			"01" + "11" + "0169" + "0168" + "00" + "00" + "02" + // batch header i, h, 0, "", 2 envelopes
				ack1[2:] + "ff" + "02" + "027432" + "00" + "026e6f" + "027433" + "01" + "00" + // the section ends …
				ack1[2:]}, // … where the next envelope's kind tag begins
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			data, err := binEncode(row.env)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(data); got != row.want {
				t.Fatalf("wire bytes changed:\ngot  %s\nwant %s", got, row.want)
			}
			back, err := binDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !envEqual(row.env, back) {
				t.Fatalf("golden frame round trip lost information:\nwant %+v\ngot  %+v", row.env, back)
			}
		})
	}
}

// TestGroupSectionRejectsCorruptFrames: a More section cut short anywhere
// is a truncated frame, and one whose count exceeds the bytes that follow
// is a corrupt one — the decoder's two existing error classes, no third.
func TestGroupSectionRejectsCorruptFrames(t *testing.T) {
	award, ack, plan, cfb := groupEnvelopes()
	cfb.Body = CallForBidsBatch{Metas: cfb.Body.(CallForBidsBatch).Metas, Sole: []model.TaskID{"t1", "t2"}}
	for _, env := range []Envelope{award, ack, plan, cfb} {
		kind := env.Body.Kind()
		data, err := binEncode(env)
		if err != nil {
			t.Fatal(err)
		}
		section := bytes.LastIndexByte(data, optSection)
		if section < 0 {
			t.Fatalf("%s carries no section byte", kind)
		}
		for n := section + 1; n < len(data); n++ {
			if _, err := binDecode(data[:n]); !errors.Is(err, errTruncated) && !errors.Is(err, errCorrupt) {
				t.Errorf("%s section truncated to %d of %d bytes: err = %v", kind, n, len(data), err)
			}
		}
		// The count says three where two elements follow.
		over := bytes.Clone(data)
		over[section+1] = 3
		if _, err := binDecode(over); !errors.Is(err, errTruncated) {
			t.Errorf("%s with one element too few: err = %v, want a truncated frame", kind, err)
		}
		// The count says more elements than bytes are left.
		absurd := append(bytes.Clone(data[:section+1]), 0xff, 0xff, 0x03)
		if _, err := binDecode(absurd); !errors.Is(err, errCorrupt) {
			t.Errorf("%s with an absurd count: err = %v, want a corrupt frame", kind, err)
		}
		if _, err := binDecode(append(bytes.Clone(data), optSection)); !errors.Is(err, errCorrupt) {
			t.Errorf("%s with a second section byte: err = %v, want a corrupt frame", kind, err)
		}
	}
}
