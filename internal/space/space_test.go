package space

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDist(t *testing.T) {
	if d := dist(Point{0, 0}, Point{3, 4}); d != 5 {
		t.Errorf("dist = %v, want 5", d)
	}
	if d := dist(Point{1, 1}, Point{1, 1}); d != 0 {
		t.Errorf("dist same point = %v", d)
	}
}

func TestNear(t *testing.T) {
	if !Near(Point{0, 0}, Point{0, 0.5}, 1) {
		t.Error("Near = false within eps")
	}
	if Near(Point{0, 0}, Point{5, 0}, 1) {
		t.Error("Near = true outside eps")
	}
}

func TestTravelTime(t *testing.T) {
	if d := TravelTime(Point{0, 0}, Point{10, 0}, 2); d != 5*time.Second {
		t.Errorf("TravelTime = %v, want 5s", d)
	}
	if d := TravelTime(Point{1, 1}, Point{1, 1}, 0); d != 0 {
		t.Errorf("TravelTime same point zero speed = %v, want 0", d)
	}
	if d := TravelTime(Point{0, 0}, Point{1, 0}, 0); d != time.Duration(math.MaxInt64) {
		t.Errorf("TravelTime immobile = %v, want max", d)
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{1.25, 3}).String(); s != "(1.2, 3.0)" && s != "(1.3, 3.0)" {
		t.Errorf("String = %q", s)
	}
}

func TestStaticMobility(t *testing.T) {
	s := Static{P: Point{2, 3}}
	now := time.Unix(100, 0)
	if got := s.Position(now); got != (Point{2, 3}) {
		t.Errorf("Position = %v", got)
	}
	s.Travel(now, Point{9, 9})
	if got := s.Position(now.Add(time.Hour)); got != (Point{2, 3}) {
		t.Errorf("static host moved: %v", got)
	}
	if s.Speed() != 0 {
		t.Errorf("Speed = %v", s.Speed())
	}
}

func TestMoverInterpolation(t *testing.T) {
	start := time.Unix(0, 0)
	m := NewMover(Point{0, 0}, 1) // 1 m/s
	if got := m.Position(start); got != (Point{0, 0}) {
		t.Fatalf("initial Position = %v", got)
	}
	m.Travel(start, Point{10, 0})
	if got := m.Position(start.Add(5 * time.Second)); math.Abs(got.X-5) > 1e-9 || got.Y != 0 {
		t.Errorf("midway Position = %v, want (5,0)", got)
	}
	if got := m.Position(start.Add(20 * time.Second)); got != (Point{10, 0}) {
		t.Errorf("post-arrival Position = %v, want (10,0)", got)
	}
	// Before departure the mover has not left.
	m2 := NewMover(Point{0, 0}, 1)
	m2.Travel(start.Add(time.Minute), Point{10, 0})
	if got := m2.Position(start); got != (Point{0, 0}) {
		t.Errorf("pre-departure Position = %v", got)
	}
	if m.Speed() != 1 {
		t.Errorf("Speed = %v", m.Speed())
	}
}

func TestMoverReroute(t *testing.T) {
	start := time.Unix(0, 0)
	m := NewMover(Point{0, 0}, 1)
	m.Travel(start, Point{10, 0})
	// Halfway there, turn around.
	mid := start.Add(5 * time.Second)
	m.Travel(mid, Point{0, 0})
	got := m.Position(mid.Add(5 * time.Second))
	if math.Abs(got.X) > 1e-9 {
		t.Errorf("after reroute Position = %v, want origin", got)
	}
}

// TestPropTravelTimeSymmetric: travel time is symmetric and scales
// inversely with speed.
func TestPropTravelTimeSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Point{math.Mod(ax, 1000), math.Mod(ay, 1000)}
		b := Point{math.Mod(bx, 1000), math.Mod(by, 1000)}
		t1 := TravelTime(a, b, 2)
		t2 := TravelTime(b, a, 2)
		if t1 != t2 {
			return false
		}
		t4 := TravelTime(a, b, 4)
		// Double speed halves time (within rounding).
		diff := t1/2 - t4
		return diff > -time.Millisecond && diff < time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropMoverNeverOvershoots: a mover's distance from origin never
// exceeds the segment length, and its position is always on the segment.
func TestPropMoverNeverOvershoots(t *testing.T) {
	f := func(destX, destY float64, secs uint8) bool {
		dest := Point{math.Mod(destX, 500), math.Mod(destY, 500)}
		start := time.Unix(0, 0)
		m := NewMover(Point{0, 0}, 3)
		m.Travel(start, dest)
		p := m.Position(start.Add(time.Duration(secs) * time.Second))
		return dist(Point{0, 0}, p) <= dist(Point{0, 0}, dest)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
