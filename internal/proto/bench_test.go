package proto

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"openwf/internal/model"
)

// benchEnvelope is the broadcast-hot knowhow query (the paper's Fragment
// Message, sent to every member on every exploration round).
func benchEnvelope() Envelope {
	return Envelope{
		From: "host-a", To: "host-b", ReqID: 42, Workflow: "wf-1",
		Body: FragmentQuery{Labels: []model.LabelID{
			"breakfast ingredients", "lunch ingredients", "omelet bar setup",
		}},
	}
}

// benchBidEnvelope is the auction-hot reply message: one member's answer
// to a batched call for bids.
func benchBidEnvelope() Envelope {
	return Envelope{
		From: "host-b", To: "host-a", ReqID: 43, Workflow: "wf-1",
		Body: BidBatch{
			Bids: []Bid{{
				Task: "cook omelets", ServicesOffered: 3,
				Specialization: 0.75, Deadline: time.Unix(1700000000, 0),
			}},
			Declines: []model.TaskID{"serve tables"},
		},
	}
}

// benchLabelTransfer4K is one hop of an executed workflow's data flow: a
// label with a 4 KiB payload, the shape every wireless_execute hop sends.
// Its frame is over cloneThreshold, so the decoder reads it in place.
func benchLabelTransfer4K() Envelope {
	data := make([]byte, 4<<10)
	for i := range data {
		data[i] = byte(i)
	}
	return Envelope{
		From: "host-a", To: "host-b", ReqID: 47, Workflow: "wf-1",
		Body: LabelTransfer{Label: "omelets", Data: data, Producer: "host-a"},
	}
}

// BenchmarkEncodeToPooled is the transports' marshal path: a pooled buffer
// whose grown backing array is reused across envelopes. With the binary
// codec this is allocation-free.
func BenchmarkEncodeToPooled(b *testing.B) {
	env := benchEnvelope()
	pool := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := pool.Get().(*bytes.Buffer)
		buf.Reset()
		if err := EncodeTo(buf, env); err != nil {
			b.Fatal(err)
		}
		pool.Put(buf)
	}
}

// BenchmarkDecode is the per-envelope unmarshal cost on the receive path.
func BenchmarkDecode(b *testing.B) {
	data, err := binEncode(benchEnvelope())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeLabelTransfer4K is the receive cost of one data-flow
// hop. Its B/op is the payload's one copy plus a few small strings
// (TestDecodeLargeFrameBytes bounds it).
func BenchmarkDecodeLabelTransfer4K(b *testing.B) {
	data, err := binEncode(benchLabelTransfer4K())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAwardEnvelope is a held award of three tasks carrying their
// routes, the shape of one sim_serial round trip's request, and
// benchAwardAckEnvelope its reply when every task is confirmed.
func benchAwardEnvelope() Envelope {
	at := time.Unix(1700000000, 0)
	metas := make([]TaskMeta, 3)
	for i, task := range []model.TaskID{"chop", "cook", "serve"} {
		start := at.Add(time.Duration(i) * time.Second)
		metas[i] = TaskMeta{Task: task, Mode: model.Conjunctive, Inputs: []model.LabelID{"in"}, Outputs: []model.LabelID{"out"}, Start: start, End: start.Add(time.Second)}
	}
	return Envelope{
		From: "host-a", To: "host-b", ReqID: 44, Workflow: "wf-1",
		Body: Award{Meta: metas[0], More: metas[1:], Hold: true, Routes: []Route{{Label: "out", To: "host-a"}}},
	}
}

func benchAwardAckEnvelope() Envelope {
	return Envelope{From: "host-b", To: "host-a", ReqID: 44, Workflow: "wf-1", Body: AwardAck{}}
}

// BenchmarkRoundTrip encodes and decodes through a pooled buffer — the
// full per-message codec cost on the simulated network — for the two hot
// message shapes and the held-award round trip.
func BenchmarkRoundTrip(b *testing.B) {
	for _, c := range []struct {
		name string
		env  Envelope
	}{
		{"fragment-query", benchEnvelope()},
		{"bid-batch", benchBidEnvelope()},
		{"award", benchAwardEnvelope()},
		{"award-ack", benchAwardAckEnvelope()},
	} {
		b.Run(c.name, func(b *testing.B) {
			pool := sync.Pool{New: func() any { return new(bytes.Buffer) }}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf := pool.Get().(*bytes.Buffer)
				buf.Reset()
				if err := EncodeTo(buf, c.env); err != nil {
					b.Fatal(err)
				}
				if _, err := Decode(buf.Bytes()); err != nil {
					b.Fatal(err)
				}
				pool.Put(buf)
			}
		})
	}
}
