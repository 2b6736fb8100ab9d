package obs

import (
	"testing"
	"time"
)

func TestProgressDisabledAndNil(t *testing.T) {
	r := NewRegistry()
	p := r.Progress("work")
	p.Step()
	p.AddTotal(10)
	if p.Done() != 0 || p.Total() != 0 {
		t.Fatalf("disabled progress recorded done=%d total=%d", p.Done(), p.Total())
	}
	var nilP *Progress
	nilP.Step()
	nilP.Add(3)
	nilP.AddTotal(5)
	if nilP.Done() != 0 || nilP.Total() != 0 || nilP.Name() != "" {
		t.Fatal("nil progress not zero")
	}
	v := nilP.View(time.Now())
	if v.ETASeconds != -1 {
		t.Fatalf("nil view eta = %v, want -1", v.ETASeconds)
	}
}

func TestProgressRateAndETA(t *testing.T) {
	r := NewRegistry()
	p := r.Progress("sweep")
	withEnabled(t, func() {
		p.AddTotal(100)
		p.Add(25)
	})
	start := time.Unix(0, p.startNs.Load())
	v := p.View(start.Add(5 * time.Second))
	if v.Name != "sweep" || v.Done != 25 || v.Total != 100 {
		t.Fatalf("view = %+v", v)
	}
	if v.Rate != 5 {
		t.Fatalf("rate = %v, want 5/s", v.Rate)
	}
	if v.ETASeconds != 15 {
		t.Fatalf("eta = %v, want 15s (75 left at 5/s)", v.ETASeconds)
	}
}

func TestProgressUnknownTotal(t *testing.T) {
	r := NewRegistry()
	p := r.Progress("adaptive")
	withEnabled(t, func() { p.Add(10) })
	v := p.View(time.Unix(0, p.startNs.Load()).Add(2 * time.Second))
	if v.Rate != 5 {
		t.Fatalf("rate = %v, want 5/s", v.Rate)
	}
	if v.ETASeconds != -1 {
		t.Fatalf("eta = %v, want -1 for unknown total", v.ETASeconds)
	}
}

func TestProgressIdempotentRegistrationAndReset(t *testing.T) {
	r := NewRegistry()
	a := r.Progress("x")
	if b := r.Progress("x"); a != b {
		t.Fatal("Progress not idempotent")
	}
	withEnabled(t, func() {
		a.AddTotal(4)
		a.Step()
	})
	r.Reset()
	if a.Done() != 0 || a.Total() != 0 || a.startNs.Load() != 0 {
		t.Fatal("Reset did not zero progress")
	}
}

func TestProgressSnapshotSortedAndFiltered(t *testing.T) {
	r := NewRegistry()
	r.Progress("idle") // never stepped: omitted
	b := r.Progress("b")
	a := r.Progress("a")
	withEnabled(t, func() {
		b.Step()
		a.AddTotal(3)
	})
	views := r.ProgressSnapshot(time.Now())
	if len(views) != 2 || views[0].Name != "a" || views[1].Name != "b" {
		t.Fatalf("snapshot = %+v, want [a b]", views)
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("hw")
	g.SetMax(9)
	if g.Value() != 0 {
		t.Fatal("disabled SetMax recorded")
	}
	withEnabled(t, func() {
		g.SetMax(5)
		g.SetMax(3) // lower: ignored
		g.SetMax(8)
	})
	if g.Value() != 8 {
		t.Fatalf("gauge = %d, want high-water 8", g.Value())
	}
	var nilG *Gauge
	nilG.SetMax(1)
}
