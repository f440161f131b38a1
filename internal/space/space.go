// Package space models the physical dimension of open workflows: host
// locations on a 2D plane, travel-time estimation, and simple mobility
// models. The paper's participants are people and devices that move in the
// real world; commitments carry the location at which a service must be
// performed, and the schedule manager blocks out travel time (§3.2, §4).
package space

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Point is a position on the plane. Units are meters.
type Point struct {
	X, Y float64
}

// dist returns the Euclidean distance between two points, in meters.
func dist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Hypot(dx, dy)
}

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Near reports whether two points are within eps meters of each other.
func Near(a, b Point, eps float64) bool { return dist(a, b) <= eps }

// TravelTime returns the time needed to move between two points at the
// given speed (meters/second). A non-positive speed means the traveler
// cannot move: the result is 0 for identical points and a very large
// duration otherwise.
func TravelTime(from, to Point, speed float64) time.Duration {
	d := dist(from, to)
	if d == 0 {
		return 0
	}
	if speed <= 0 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(d / speed * float64(time.Second))
}

// Mobility tracks where a host is and lets it travel. Implementations are
// safe for concurrent use.
type Mobility interface {
	// Position returns the host's position at the given time.
	Position(now time.Time) Point
	// Speed returns the host's travel speed in meters/second.
	Speed() float64
	// Travel starts a journey toward dest at the given start time.
	// Position interpolates linearly along the segment until arrival.
	Travel(start time.Time, dest Point)
}

// Static is a Mobility that never moves (a fixed device).
type Static struct {
	P Point
}

var _ Mobility = Static{}

// Position implements Mobility.
func (s Static) Position(time.Time) Point { return s.P }

// Speed implements Mobility; a static host has speed 0.
func (s Static) Speed() float64 { return 0 }

// Travel implements Mobility; a static host ignores travel requests.
func (s Static) Travel(time.Time, Point) {}

// Mover is a Mobility with a constant speed that travels on straight
// segments when told to. The zero value is unusable; use NewMover.
type Mover struct {
	mu    sync.Mutex
	speed float64
	// current segment
	origin    Point
	dest      Point
	departure time.Time
}

var _ Mobility = (*Mover)(nil)

// NewMover returns a Mobility at start with the given speed (m/s).
func NewMover(start Point, speed float64) *Mover {
	return &Mover{speed: speed, origin: start, dest: start}
}

// Speed implements Mobility.
func (m *Mover) Speed() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.speed
}

// Position implements Mobility.
func (m *Mover) Position(now time.Time) Point {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.positionLocked(now)
}

func (m *Mover) positionLocked(now time.Time) Point {
	if m.origin == m.dest || !now.After(m.departure) {
		return m.origin
	}
	total := dist(m.origin, m.dest)
	travelled := m.speed * now.Sub(m.departure).Seconds()
	if travelled >= total {
		return m.dest
	}
	f := travelled / total
	return Point{
		X: m.origin.X + (m.dest.X-m.origin.X)*f,
		Y: m.origin.Y + (m.dest.Y-m.origin.Y)*f,
	}
}

// Travel implements Mobility. The journey starts from wherever the mover
// is at the start time (interrupting any in-progress journey).
func (m *Mover) Travel(start time.Time, dest Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.origin = m.positionLocked(start)
	m.dest = dest
	m.departure = start
}
