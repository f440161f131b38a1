// Package trace provides lightweight observability for the open workflow
// management system: every message a host sends or receives can be
// recorded as an event, giving a per-host view of the distributed
// construction, allocation, and execution conversation. The CLI's -trace
// flag streams events; tests record into a Buffer, which keeps every event,
// to assert protocol behavior.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"

	"openwf/internal/proto"
)

// Dir is the direction of a message event relative to the recording host.
type Dir string

const (
	// Recv marks an inbound message.
	Recv Dir = "recv"
	// Send marks an outbound message.
	Send Dir = "send"
)

// Event is one observed message.
type Event struct {
	// At is when the host observed the message.
	At time.Time
	// Host is the observing host.
	Host proto.Addr
	// Dir is the message direction.
	Dir Dir
	// Peer is the other endpoint.
	Peer proto.Addr
	// Kind is the message body kind.
	Kind string
	// Workflow is the open-workflow instance, if any.
	Workflow string
}

// String renders the event as a single log line.
func (e Event) String() string {
	arrow := "<-"
	if e.Dir == Send {
		arrow = "->"
	}
	wf := e.Workflow
	if wf == "" {
		wf = "-"
	}
	return fmt.Sprintf("%s %-12s %s %-12s %-18s wf=%s",
		e.At.Format("15:04:05.000000"), e.Host, arrow, e.Peer, e.Kind, wf)
}

// Recorder consumes events. Implementations must be safe for concurrent
// use; hosts call Record from transport and execution goroutines.
type Recorder interface {
	Record(e Event)
}

// Buffer is an in-memory Recorder keeping every event it records. The
// zero Buffer is ready to use.
type Buffer struct {
	mu     sync.Mutex
	events []Event
}

var _ Recorder = (*Buffer)(nil)

// Record implements Recorder.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, e)
}

// Events returns a copy of the recorded events, oldest first.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// CountKind returns how many recorded events have the given kind.
func (b *Buffer) CountKind(kind string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, e := range b.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// Writer is a Recorder streaming events straight to an io.Writer (for the
// CLI's -trace flag). Writes are serialized.
type Writer struct {
	mu sync.Mutex
	w  io.Writer
}

var _ Recorder = (*Writer)(nil)

// NewWriter returns a streaming recorder.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// Record implements Recorder.
func (s *Writer) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintln(s.w, e)
}
