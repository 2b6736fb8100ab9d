package experiment

import (
	"strings"
	"testing"

	"clustercast/internal/stats"
)

// fastRule keeps test runtimes low while still averaging several
// replicates.
func fastRule() stats.StopRule {
	return stats.StopRule{
		Confidence:    0.95,
		RelHalfWidth:  0.25,
		MinReplicates: 5,
		MaxReplicates: 12,
	}
}

func smallNs() []int { return []int{20, 40, 60} }

func TestFig6Shape(t *testing.T) {
	f := Fig6(6, smallNs(), 1, fastRule())
	if len(f.Series) != 3 {
		t.Fatalf("Fig6 must have 3 series, got %d", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != len(smallNs()) {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
		// CDS sizes grow with n.
		if s.Points[0].Mean <= 0 || s.Points[len(s.Points)-1].Mean <= s.Points[0].Mean {
			t.Fatalf("series %s not increasing: %+v", s.Name, s.Points)
		}
	}
	// Paper: static ≈ MO_CDS with static slightly smaller; tolerate noise
	// but the static curve must not exceed MO_CDS by more than 10%.
	static := f.Series[0]
	mo := f.Series[2]
	for i := range static.Points {
		if static.Points[i].Mean > mo.Points[i].Mean*1.10 {
			t.Fatalf("static (%.2f) far above MO_CDS (%.2f) at n=%g",
				static.Points[i].Mean, mo.Points[i].Mean, static.Points[i].X)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	f := Fig7(18, smallNs(), 2, fastRule())
	if len(f.Series) != 3 {
		t.Fatalf("Fig7 must have 3 series")
	}
	// Paper's headline: the dynamic backbone uses far fewer forwarders
	// than MO_CDS, especially in dense networks.
	dyn := f.Series[0]
	mo := f.Series[2]
	for i := range dyn.Points {
		if dyn.Points[i].Mean >= mo.Points[i].Mean {
			t.Fatalf("dynamic (%.2f) not below MO_CDS (%.2f) at n=%g",
				dyn.Points[i].Mean, mo.Points[i].Mean, dyn.Points[i].X)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	f := Fig8(6, smallNs(), 3, fastRule())
	if len(f.Series) != 4 {
		t.Fatalf("Fig8 must have 4 series")
	}
	// dynamic-2.5hop must beat static-2.5hop at every size.
	static25, dyn25 := f.Series[0], f.Series[2]
	for i := range static25.Points {
		if dyn25.Points[i].Mean >= static25.Points[i].Mean {
			t.Fatalf("dynamic (%.2f) not below static (%.2f) at n=%g",
				dyn25.Points[i].Mean, static25.Points[i].Mean, dyn25.Points[i].X)
		}
	}
}

func TestFigIDNaming(t *testing.T) {
	if got := figID("fig6", 6); got != "fig6a" {
		t.Fatalf("figID d=6: %s", got)
	}
	if got := figID("fig6", 18); got != "fig6b" {
		t.Fatalf("figID d=18: %s", got)
	}
	if got := figID("fig6", 10); got != "fig6-d10" {
		t.Fatalf("figID d=10: %s", got)
	}
}

func TestCSVAndMarkdownRendering(t *testing.T) {
	f := &Figure{
		ID: "test", Title: "T", XLabel: "n", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 20, Mean: 1.5, CI: 0.1, Reps: 5}, {X: 40, Mean: 2.5, CI: 0.2, Reps: 5}}},
			{Name: "b", Points: []Point{{X: 20, Mean: 3, CI: 0.3, Reps: 5}, {X: 40, Mean: 4, CI: 0.4, Reps: 5}}},
		},
	}
	csv := f.CSV()
	if !strings.HasPrefix(csv, "x,a,a_ci99,b,b_ci99\n") {
		t.Fatalf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "20,1.5000,0.1000,3.0000,0.3000") {
		t.Fatalf("CSV row wrong:\n%s", csv)
	}
	md := f.Markdown()
	if !strings.Contains(md, "| n | a | b |") || !strings.Contains(md, "1.50 ± 0.10") {
		t.Fatalf("Markdown wrong:\n%s", md)
	}
	chart := f.ASCIIChart(8)
	if !strings.Contains(chart, "A = a") || !strings.Contains(chart, "B = b") {
		t.Fatalf("ASCII chart legend missing:\n%s", chart)
	}
}

func TestMissingPointRendering(t *testing.T) {
	// A failed sweep point (Reps == 0) must render as an explicit missing
	// marker, never as a fake 0.0000 measurement.
	f := &Figure{
		ID: "miss", Title: "M", XLabel: "n", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 20, Mean: 1.5, CI: 0.1, Reps: 5}, {X: 40}}},
			{Name: "b", Points: []Point{{X: 20, Mean: 3, CI: 0.3, Reps: 7}, {X: 40, Mean: 4, CI: 0.4, Reps: 7}}},
		},
	}
	if !f.Series[0].Points[1].Missing() || f.Series[0].Points[0].Missing() {
		t.Fatal("Missing() must track Reps == 0")
	}
	csv := f.CSV()
	if !strings.Contains(csv, "40,,,4.0000,0.4000") {
		t.Fatalf("missing CSV point must leave empty cells:\n%s", csv)
	}
	if strings.Contains(csv, "40,0.0000") {
		t.Fatalf("missing point rendered as fake zero:\n%s", csv)
	}
	md := f.Markdown()
	if !strings.Contains(md, "| 40 | n/a | 4.00 ± 0.40 |") {
		t.Fatalf("missing Markdown point must render as n/a:\n%s", md)
	}
	// The ASCII chart must simply skip the missing point.
	chart := f.ASCIIChart(6)
	if !strings.Contains(chart, "A = a") {
		t.Fatalf("chart legend missing:\n%s", chart)
	}
}

func TestEmptyFigureRendering(t *testing.T) {
	f := &Figure{ID: "e", Title: "E", XLabel: "x", YLabel: "y"}
	if got := f.CSV(); got != "x\n" {
		t.Fatalf("empty CSV = %q", got)
	}
	if got := f.ASCIIChart(5); !strings.Contains(got, "empty") {
		t.Fatalf("empty chart = %q", got)
	}
}

func TestScenarioSampleDeterministic(t *testing.T) {
	sc := DefaultScenario(30, 6, 99)
	a, _, ok1 := sc.Sample("x", 0)
	b, _, ok2 := sc.Sample("x", 0)
	if !ok1 || !ok2 {
		t.Fatal("sampling failed")
	}
	if a.G.M() != b.G.M() {
		t.Fatal("same scenario+rep must give same topology")
	}
	c, _, _ := sc.Sample("x", 1)
	if c.G.M() == a.G.M() && c.Positions[0] == a.Positions[0] {
		t.Fatal("different reps should give different topologies")
	}
}

func TestDefaultNs(t *testing.T) {
	ns := DefaultNs()
	if len(ns) != 9 || ns[0] != 20 || ns[8] != 100 {
		t.Fatalf("DefaultNs = %v", ns)
	}
}

func TestApproxRatioSmall(t *testing.T) {
	f := ApproxRatio([]int{12, 16}, 5, 4, fastRule())
	if len(f.Series) != 4 {
		t.Fatalf("ratio figure must have 4 series")
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Reps == 0 {
				continue // all replicates skipped (exact MCDS unavailable)
			}
			if p.Mean < 1.0-1e-9 {
				t.Fatalf("series %s ratio %.2f below 1 at n=%g", s.Name, p.Mean, p.X)
			}
			if p.Mean > 6 {
				t.Fatalf("series %s ratio %.2f implausibly large", s.Name, p.Mean)
			}
		}
	}
}

func TestMessageComplexitySmall(t *testing.T) {
	f := MessageComplexity([]int{20, 60}, 6, 5, fastRule())
	perNode := f.Series[1]
	if perNode.Name != "messages-per-node" {
		t.Fatalf("series order changed: %s", perNode.Name)
	}
	small, large := perNode.Points[0].Mean, perNode.Points[1].Mean
	if large > small*1.3 {
		t.Fatalf("messages per node grew from %.2f to %.2f — not linear", small, large)
	}
}

func TestBaselinesSmall(t *testing.T) {
	f := Baselines([]int{30}, 10, 6, fastRule())
	means := map[string]float64{}
	for _, s := range f.Series {
		means[s.Name] = s.Points[0].Mean
	}
	if means["flooding"] <= means["pdp"] {
		t.Fatalf("flooding (%.1f) must forward more than PDP (%.1f)",
			means["flooding"], means["pdp"])
	}
	if means["dynamic-2.5hop"] >= means["flooding"] {
		t.Fatalf("dynamic (%.1f) must beat flooding (%.1f)",
			means["dynamic-2.5hop"], means["flooding"])
	}
}

func TestTieBreakSmall(t *testing.T) {
	f := TieBreak([]int{40}, 8, 7, fastRule())
	with, without := f.Series[0].Points[0].Mean, f.Series[1].Points[0].Mean
	// The tie-break can only help (or match) on average.
	if with > without*1.05 {
		t.Fatalf("with-tiebreak (%.2f) worse than without (%.2f)", with, without)
	}
}

func TestDeliverySmall(t *testing.T) {
	f := Delivery([]int{25}, 8, 8, fastRule())
	for _, s := range f.Series {
		if s.Points[0].Mean < 0.9999 {
			t.Fatalf("series %s delivery ratio %.4f < 1", s.Name, s.Points[0].Mean)
		}
	}
}

func TestMobilitySmall(t *testing.T) {
	rule := stats.StopRule{MinReplicates: 3, MaxReplicates: 3, Confidence: 0.95, RelHalfWidth: 0.5}
	f := Mobility([]float64{1, 8}, 25, 8, 5, 9, rule)
	if len(f.Series) != 2 {
		t.Fatalf("mobility figure must have 2 series")
	}
	for _, s := range f.Series {
		slow, fast := s.Points[0].Mean, s.Points[1].Mean
		if fast < slow {
			t.Fatalf("series %s: churn at speed 8 (%.2f) below speed 1 (%.2f)",
				s.Name, fast, slow)
		}
	}
}

func TestParallelDeterminism(t *testing.T) {
	// The same figure computed serially and with the worker pool must be
	// bit-identical: all randomness derives from (seed, n, rep), and the
	// batched replication folds observations in replicate order — for
	// single series and for the groups that share one replicate stream.
	defer SetParallelism(0)
	figs := []struct {
		name string
		run  func() *Figure
	}{
		{"fig6", func() *Figure { return Fig6(6, smallNs(), 17, fastRule()) }},
		{"fig7", func() *Figure { return Fig7(6, smallNs(), 17, fastRule()) }},
		{"fig8", func() *Figure { return Fig8(18, smallNs(), 17, fastRule()) }},
		{"msg", func() *Figure { return MessageComplexity(smallNs(), 6, 17, fastRule()) }},
		{"collision", func() *Figure { return Collision([]float64{6, 14}, 30, 0, 17, fastRule()) }},
	}
	for _, f := range figs {
		SetParallelism(1)
		serial := f.run().CSV()
		for _, workers := range []int{2, 8} {
			SetParallelism(workers)
			if parallel := f.run().CSV(); serial != parallel {
				t.Fatalf("%s: workers=%d changed results:\nserial:\n%s\nparallel:\n%s", f.name, workers, serial, parallel)
			}
		}
	}
}

func TestForEachPointCoversAll(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{0, 1, 3, 16} {
		SetParallelism(workers)
		hits := make([]int, 20)
		forEachPoint(len(hits), Parallelism(), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachPointEmpty(t *testing.T) {
	forEachPoint(0, Parallelism(), func(i int) { t.Fatal("must not be called") })
}

func TestSICDSSmall(t *testing.T) {
	f := SICDS([]int{30}, 8, 10, fastRule())
	means := map[string]float64{}
	for _, s := range f.Series {
		if s.Points[0].Reps == 0 {
			t.Fatalf("series %s has no data", s.Name)
		}
		means[s.Name] = s.Points[0].Mean
	}
	// The forwarding tree attaches each cluster once: never larger than the
	// full static backbone.
	if means["fwd-tree"] > means["static-2.5hop"]+0.5 {
		t.Fatalf("fwd-tree (%.2f) larger than static backbone (%.2f)",
			means["fwd-tree"], means["static-2.5hop"])
	}
}

func TestLossySmall(t *testing.T) {
	f := Lossy([]float64{0, 0.3}, 40, 10, 11, fastRule())
	for _, s := range f.Series {
		ideal, lossy := s.Points[0].Mean, s.Points[1].Mean
		if ideal < 0.9999 {
			t.Fatalf("series %s must deliver fully without loss: %.4f", s.Name, ideal)
		}
		if lossy > ideal+1e-9 {
			t.Fatalf("series %s improved under loss: %.4f -> %.4f", s.Name, ideal, lossy)
		}
	}
	// Flooding's redundancy tolerates loss better than the thin backbones.
	flood, dyn := f.Series[0].Points[1].Mean, f.Series[2].Points[1].Mean
	if flood < dyn {
		t.Fatalf("flooding (%.3f) should out-deliver dynamic backbone (%.3f) at 30%% loss", flood, dyn)
	}
}

func TestMaintenanceSmall(t *testing.T) {
	rule := stats.StopRule{MinReplicates: 3, MaxReplicates: 3, Confidence: 0.95, RelHalfWidth: 0.5}
	f := Maintenance([]float64{3}, 30, 8, 5, 12, rule)
	reelect, lcc := f.Series[0].Points[0].Mean, f.Series[1].Points[0].Mean
	if lcc > reelect {
		t.Fatalf("LCC churn (%.2f) exceeds full re-election (%.2f)", lcc, reelect)
	}
}

func TestPassiveConvergenceSmall(t *testing.T) {
	f := PassiveConvergence(4, 50, 12, 13, fastRule())
	if len(f.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(f.Series))
	}
	pc := f.Series[0]
	if len(pc.Points) != 4 {
		t.Fatalf("passive series should have 4 flood points")
	}
	first, last := pc.Points[0].Mean, pc.Points[3].Mean
	if last > first {
		t.Fatalf("passive clustering got worse across floods: %.1f -> %.1f", first, last)
	}
	flood := f.Series[1].Points[0].Mean
	if last >= flood {
		t.Fatalf("converged passive (%.1f) should beat flooding (%.1f)", last, flood)
	}
}

func TestReliableSmall(t *testing.T) {
	f := Reliable([]float64{0, 0.3}, 30, 8, 14, fastRule())
	data := f.Series[0]
	ideal, lossy := data.Points[0].Mean, data.Points[1].Mean
	if ideal <= 0 {
		t.Fatal("no transmissions measured")
	}
	if lossy <= ideal {
		t.Fatalf("loss must cost retransmissions: %.1f -> %.1f", ideal, lossy)
	}
	floodDelivery := f.Series[2]
	if floodDelivery.Points[1].Mean >= 100 {
		t.Fatalf("flooding under 30%% loss should not always deliver fully: %.1f%%",
			floodDelivery.Points[1].Mean)
	}
}

func TestPruningSmall(t *testing.T) {
	f := Pruning([]int{0, 6}, 60, 18, 15, fastRule())
	if len(f.Series) != 4 {
		t.Fatalf("want 4 series, got %d", len(f.Series))
	}
	sbaFwd := f.Series[0]
	sbaLat := f.Series[1]
	if sbaFwd.Points[1].Mean >= sbaFwd.Points[0].Mean {
		t.Fatalf("longer back-off must prune: %.1f -> %.1f",
			sbaFwd.Points[0].Mean, sbaFwd.Points[1].Mean)
	}
	if sbaLat.Points[1].Mean <= sbaLat.Points[0].Mean {
		t.Fatalf("longer back-off must cost latency: %.1f -> %.1f",
			sbaLat.Points[0].Mean, sbaLat.Points[1].Mean)
	}
	// Piggyback pruning achieves its savings at base latency.
	pgLat := f.Series[3]
	if pgLat.Points[0].Mean >= sbaLat.Points[1].Mean {
		t.Fatalf("piggyback latency (%.1f) should be below long-backoff latency (%.1f)",
			pgLat.Points[0].Mean, sbaLat.Points[1].Mean)
	}
}

func TestRoutingSmall(t *testing.T) {
	f := Routing([]int{40}, 12, 16, fastRule())
	means := map[string]float64{}
	for _, s := range f.Series {
		means[s.Name] = s.Points[0].Mean
	}
	if means["backbone-cost"] >= means["flooding-cost"] {
		t.Fatalf("backbone RREQ cost %.1f should beat flooding %.1f",
			means["backbone-cost"], means["flooding-cost"])
	}
	if means["flooding-stretch"] > 1.0001 {
		t.Fatalf("flooding stretch %.3f must be 1", means["flooding-stretch"])
	}
	if means["backbone-stretch"] > 2 {
		t.Fatalf("backbone stretch %.3f too high", means["backbone-stretch"])
	}
}

func TestStormSmall(t *testing.T) {
	f := Storm([]float64{6, 18}, 50, 17, fastRule())
	flood := f.Series[0]
	if flood.Points[1].Mean <= flood.Points[0].Mean {
		t.Fatalf("flooding redundancy must grow with density: %.2f -> %.2f",
			flood.Points[0].Mean, flood.Points[1].Mean)
	}
	dyn := f.Series[1]
	for i := range flood.Points {
		if dyn.Points[i].Mean >= flood.Points[i].Mean {
			t.Fatalf("dynamic redundancy %.2f not below flooding %.2f at d=%g",
				dyn.Points[i].Mean, flood.Points[i].Mean, flood.Points[i].X)
		}
	}
}

func TestHierarchySmall(t *testing.T) {
	f := Hierarchy([]int{60}, 8, 2, 18, fastRule())
	if len(f.Series) != 3 {
		t.Fatalf("want 3 series, got %d", len(f.Series))
	}
	l0 := f.Series[0].Points[0].Mean
	l1 := f.Series[1].Points[0].Mean
	l2 := f.Series[2].Points[0].Mean
	if !(l0 > l1 && l1 >= l2) {
		t.Fatalf("heads must shrink per level: %.1f, %.1f, %.1f", l0, l1, l2)
	}
}

func TestCollisionSmall(t *testing.T) {
	// Synchronized transmissions (no contention window) are the raw storm
	// scenario: the thin backbones transmit far less concurrently and keep
	// delivering while flooding loses whole regions to collisions.
	f := Collision([]float64{6, 18}, 60, 0, 19, fastRule())
	flood := f.Series[0]
	dyn := f.Series[2]
	for i := range flood.Points {
		if flood.Points[i].Mean >= 0.999 {
			t.Fatalf("flooding at d=%g should lose packets to collisions: %.3f",
				flood.Points[i].X, flood.Points[i].Mean)
		}
		if dyn.Points[i].Mean <= flood.Points[i].Mean {
			t.Fatalf("dynamic backbone (%.3f) should out-deliver flooding (%.3f) at d=%g",
				dyn.Points[i].Mean, flood.Points[i].Mean, flood.Points[i].X)
		}
	}
}

func TestElectionSmall(t *testing.T) {
	f := Election([]int{50}, 18, 20, fastRule())
	means := map[string]float64{}
	for _, s := range f.Series {
		means[s.Name] = s.Points[0].Mean
	}
	// Highest-degree election needs no more clusters than lowest-ID (it
	// places heads at hubs).
	if means["highestdeg-heads"] > means["lowestid-heads"]*1.05 {
		t.Fatalf("highest-degree heads %.1f exceed lowest-ID heads %.1f",
			means["highestdeg-heads"], means["lowestid-heads"])
	}
	if means["lowestid-backbone"] < means["lowestid-heads"] {
		t.Fatal("backbone must contain the heads")
	}
}

func TestCoverageCostSmall(t *testing.T) {
	f := CoverageCost([]int{60}, 18, 21, fastRule())
	e25 := f.Series[0].Points[0].Mean
	e3 := f.Series[1].Points[0].Mean
	if e25 >= e3 {
		t.Fatalf("2.5-hop CH_HOP2 entries (%.1f) must be below 3-hop (%.1f) — "+
			"the paper's maintenance-cost claim", e25, e3)
	}
	c25 := f.Series[2].Points[0].Mean
	c3 := f.Series[3].Points[0].Mean
	if c25 > c3 {
		t.Fatalf("2.5-hop coverage size (%.2f) cannot exceed 3-hop (%.2f)", c25, c3)
	}
}

func TestAmortizedSmall(t *testing.T) {
	f := Amortized([]int{1, 20}, 50, 18, 22, fastRule())
	flood, static, dyn := f.Series[0], f.Series[1], f.Series[2]
	// At k=1 the setup cost dominates: flooding is cheapest.
	if flood.Points[0].Mean >= static.Points[0].Mean {
		t.Fatalf("at k=1 flooding (%.0f) should beat static setup+broadcast (%.0f)",
			flood.Points[0].Mean, static.Points[0].Mean)
	}
	// At k=20 the backbones amortize: both beat flooding, dynamic beats static.
	if static.Points[1].Mean >= flood.Points[1].Mean {
		t.Fatalf("at k=20 static (%.0f) should beat flooding (%.0f)",
			static.Points[1].Mean, flood.Points[1].Mean)
	}
	if dyn.Points[1].Mean >= static.Points[1].Mean {
		t.Fatalf("at k=20 dynamic (%.0f) should beat static (%.0f)",
			dyn.Points[1].Mean, static.Points[1].Mean)
	}
}
