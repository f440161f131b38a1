// Package backlog is the daemon's admission-controlled work queue: a
// bounded FIFO per priority class with typed rejection. It is the piece
// that turns "fire a goroutine per request" into a served workload — when
// offered load exceeds capacity the queue rejects at the door with a
// RejectedError carrying the observed depth (backpressure the submitter
// can act on), rather than letting goroutines or memory grow without
// bound. The paper's middleware never needed this because its evaluation
// is one-shot; a daemon serving continuous traffic does.
//
// Ordering: Next always prefers the highest non-empty class, FIFO within
// a class. Admission is per-class — a flood of Low work can never crowd
// out High capacity, and vice versa.
package backlog

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Class is a priority class. Higher classes are served first.
type Class int

const (
	// Low is batch/background work, served only when nothing more
	// urgent waits.
	Low Class = iota
	// Normal is the default class for interactive submissions.
	Normal
	// High jumps the queue: operator and repair-critical work.
	High
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Low:
		return "low"
	case Normal:
		return "normal"
	case High:
		return "high"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists every class from highest to lowest service order —
// the iteration order of Next, exported for metric labeling.
func Classes() []Class { return []Class{High, Normal, Low} }

// RejectedError is the typed admission rejection: the class was at
// capacity when the item arrived. Depth and Capacity let the submitter
// distinguish "just full" from "deeply backed up" when deciding whether
// to retry, shed, or escalate.
type RejectedError struct {
	Class    Class
	Depth    int
	Capacity int
}

// Error implements error.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("backlog: %s class at capacity (%d/%d)", e.Class, e.Depth, e.Capacity)
}

// ErrClosed is returned by Submit after Close, and by Next once a closed
// queue has drained.
var ErrClosed = errors.New("backlog: closed")

// Queue is a bounded multi-class FIFO. The zero value is not usable;
// construct with New.
type Queue[T any] struct {
	mu       sync.Mutex
	items    [numClasses][]T
	capacity int // of each class
	closed   bool
	// notify wakes one blocked Next per send; a waiter that pops while
	// more items remain re-notifies, chaining wakeups to its peers.
	notify chan struct{}
	// closedCh closes on Close, waking every blocked Next at once.
	closedCh chan struct{}
}

// New builds a queue whose classes each hold at most capPerClass items
// (capPerClass must be positive).
func New[T any](capPerClass int) *Queue[T] {
	if capPerClass <= 0 {
		panic(fmt.Sprintf("backlog: non-positive capacity %d", capPerClass))
	}
	return &Queue[T]{
		capacity: capPerClass,
		notify:   make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
}

// Submit offers an item for admission. It never blocks: the item is
// either queued, rejected with *RejectedError (class at capacity), or
// refused with ErrClosed. An unknown class is treated as Normal.
func (q *Queue[T]) Submit(class Class, item T) error {
	if class < Low || class >= numClasses {
		class = Normal
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	if len(q.items[class]) >= q.capacity {
		depth := len(q.items[class])
		q.mu.Unlock()
		return &RejectedError{Class: class, Depth: depth, Capacity: q.capacity}
	}
	q.items[class] = append(q.items[class], item)
	q.mu.Unlock()
	q.wake()
	return nil
}

// wake nudges one blocked Next without blocking the caller.
func (q *Queue[T]) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Next returns the oldest item of the highest non-empty class, blocking
// until an item arrives, the queue closes and drains (ErrClosed), or ctx
// ends (ctx.Err()). After Close, Next keeps returning queued items until
// the backlog is empty — the drain path — and only then reports
// ErrClosed.
func (q *Queue[T]) Next(ctx context.Context) (T, Class, error) {
	var zero T
	for {
		q.mu.Lock()
		for _, class := range Classes() {
			if n := len(q.items[class]); n > 0 {
				item := q.items[class][0]
				q.items[class] = q.items[class][1:]
				more := n > 1 || q.depthLocked() > 0
				q.mu.Unlock()
				if more {
					// Chain the wakeup: another waiter may be blocked
					// while items remain.
					q.wake()
				}
				return item, class, nil
			}
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return zero, 0, ErrClosed
		}
		select {
		case <-ctx.Done():
			return zero, 0, ctx.Err()
		case <-q.notify:
		case <-q.closedCh:
		}
	}
}

// depthLocked sums queued items across classes; callers hold q.mu.
func (q *Queue[T]) depthLocked() int {
	total := 0
	for _, items := range q.items {
		total += len(items)
	}
	return total
}

// Depth returns the queued item count for one class.
func (q *Queue[T]) Depth(class Class) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if class < Low || class >= numClasses {
		return 0
	}
	return len(q.items[class])
}

// TotalDepth returns the queued item count across all classes.
func (q *Queue[T]) TotalDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depthLocked()
}

// Close stops admission: subsequent Submits return ErrClosed, and every
// blocked Next wakes. Items already admitted stay queued for Next to
// drain. Close is idempotent.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.closedCh)
}
