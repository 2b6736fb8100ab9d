package obs

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// withEnabled runs f with metric recording on, restoring the default off
// state (tests elsewhere rely on the zero-overhead default).
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	Enable()
	defer Disable()
	f()
}

func TestCounterDisabledAndNil(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("disabled counter recorded %d", c.Value())
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	if nilC.Value() != 0 {
		t.Fatal("nil counter value")
	}
	withEnabled(t, func() {
		c.Inc()
		c.Add(2)
		nilC.Inc() // still a no-op
	})
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("disabled gauge recorded")
	}
	withEnabled(t, func() {
		g.Set(7)
		g.Add(-2)
	})
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
}

func TestRegistryIdempotentAndReset(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("re-registration returned a different counter")
	}
	c := r.Counter("x")
	withEnabled(t, func() { c.Add(9) })
	r.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
	withEnabled(t, func() { c.Inc() })
	if c.Value() != 1 {
		t.Fatal("counter pointer went stale across Reset")
	}
}

func TestSnapshotSortedAndOmitsZeros(t *testing.T) {
	r := NewRegistry()
	b, a, z := r.Counter("b"), r.Counter("a"), r.Counter("zero")
	_ = z
	withEnabled(t, func() { b.Inc(); a.Add(2) })
	s := r.Snapshot()
	if len(s.Counters) != 2 {
		t.Fatalf("snapshot kept zero-valued metrics: %+v", s.Counters)
	}
	if s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Fatalf("snapshot not sorted: %+v", s.Counters)
	}
}

func TestTracerRecordsAndResets(t *testing.T) {
	tr := NewTracer(8)
	tr.SetTime(3)
	tr.Send(0, 5, -1)
	tr.Deliver(1, 6, 5)
	tr.Duplicate(1, 7, 5)
	tr.GatewaySelect(2, 9)
	tr.CoveragePrune(2, 4, RulePiggybackedSet)
	tr.Collision(2, 8)
	evs := tr.Events()
	if len(evs) != 6 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("seq[%d] = %d", i, ev.Seq)
		}
	}
	// Protocol-side events carry the stamped time.
	if evs[3].T != 3 || evs[4].T != 3 {
		t.Fatalf("gateway/prune events did not carry SetTime: %+v %+v", evs[3], evs[4])
	}
	if evs[4].Rule != RulePiggybackedSet {
		t.Fatalf("prune rule = %v", evs[4].Rule)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 || len(tr.Events()) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Send(i, i, -1)
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	// The oldest retained event reveals the gap.
	if evs[0].Seq != 6 || evs[3].Seq != 9 {
		t.Fatalf("retained seqs %d..%d", evs[0].Seq, evs[3].Seq)
	}
}

func TestNilTracerIsNop(t *testing.T) {
	var tr *Tracer
	tr.SetTime(1)
	tr.Send(0, 0, -1)
	tr.Deliver(0, 0, 0)
	tr.Duplicate(0, 0, 0)
	tr.Collision(0, 0)
	tr.GatewaySelect(0, 0)
	tr.CoveragePrune(0, 0, RuleUpstreamSender)
	tr.Reset()
	if tr.Len() != 0 || tr.Now() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer not inert")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil tracer wrote output")
	}
}

func TestJSONLStableFieldOrder(t *testing.T) {
	tr := NewTracer(4)
	tr.Send(0, 1, -1)
	tr.SetTime(1)
	tr.CoveragePrune(3, 4, RuleSecondHopAdjacent)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"seq":0,"t":0,"ev":"send","node":1,"peer":-1,"rule":""}
{"seq":1,"t":1,"ev":"coverage-prune","node":3,"peer":4,"rule":"second-hop-adjacent"}
`
	if buf.String() != want {
		t.Fatalf("JSONL output:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Send(0, 1, -1)
	tr.Deliver(1, 2, 1)
	tr.Duplicate(1, 3, 1)
	tr.SetTime(1)
	tr.GatewaySelect(2, 5)
	tr.CoveragePrune(2, 6, RuleUpstreamSender)
	tr.Collision(2, 7)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events()) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, tr.Events())
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"seq":0,"t":0,"ev":"warp","node":0,"peer":0,"rule":""}` + "\n")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"seq":0,"t":0,"ev":"send","node":0,"peer":0,"rule":"bogus"}` + "\n")); err == nil {
		t.Fatal("unknown rule accepted")
	}
	evs, err := ReadJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank lines: %v %v", evs, err)
	}
}

func TestKindAndRuleParseInverse(t *testing.T) {
	for k := EvSend; k <= EvStall; k++ {
		got, err := ParseEventKind(k.String())
		if err != nil || got != k {
			t.Fatalf("kind %v: parse(%q) = %v, %v", k, k.String(), got, err)
		}
	}
	for r := RuleNone; r <= RuleSecondHopAdjacent; r++ {
		got, err := ParsePruneRule(r.String())
		if err != nil || got != r {
			t.Fatalf("rule %v: parse(%q) = %v, %v", r, r.String(), got, err)
		}
	}
}

func TestStageClockMergeDeterministic(t *testing.T) {
	ResetStages()
	defer ResetStages()
	var a, b StageClock
	a.Add("sample", 100)
	a.Add("replicate", 300)
	b.Add("replicate", 200)
	b.AddAlloc("replicate", 4096)
	MergeStages(&a, &b, nil)
	got := StageSnapshot()
	want := []StageStat{
		{Name: "replicate", Count: 2, WallNs: 500, AllocBytes: 4096},
		{Name: "sample", Count: 1, WallNs: 100},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	// Folding the same clocks in the other order yields the same snapshot:
	// stage sums commute and the export is sorted by name.
	ResetStages()
	MergeStages(&b, &a)
	if again := StageSnapshot(); !reflect.DeepEqual(again, want) {
		t.Fatalf("order-dependent merge: %+v", again)
	}
}

func TestStageClockObserve(t *testing.T) {
	var c StageClock
	c.Observe("x", time.Now().Add(-time.Millisecond))
	s := c.Stats()
	if len(s) != 1 || s[0].Count != 1 || s[0].WallNs < time.Millisecond.Nanoseconds() {
		t.Fatalf("stats = %+v", s)
	}
	c.Reset()
	if len(c.Stats()) != 0 {
		t.Fatal("Reset left stages")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	ResetStages()
	defer ResetStages()
	defer Default.Reset()
	withEnabled(t, func() {
		NewCounter("manifest.test.counter").Add(3)
		var c StageClock
		c.Add("kernel", 1234)
		MergeStages(&c)

		m := NewManifest("testtool")
		m.Seed = 42
		m.Workers = 4
		m.Param("n", 100).Param("d", 6.5)
		m.AddOutput("b.csv")
		m.AddOutput("a.csv")
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := m.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := ReadManifest(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tool != "testtool" || got.Seed != 42 || got.Workers != 4 {
			t.Fatalf("header fields: %+v", got)
		}
		if got.Params["n"] != "100" || got.Params["d"] != "6.5" {
			t.Fatalf("params: %+v", got.Params)
		}
		if !reflect.DeepEqual(got.Outputs, []string{"a.csv", "b.csv"}) {
			t.Fatalf("outputs not sorted: %v", got.Outputs)
		}
		if len(got.Stages) != 1 || got.Stages[0].Name != "kernel" {
			t.Fatalf("stages: %+v", got.Stages)
		}
		found := false
		for _, c := range got.Metrics.Counters {
			found = found || (c.Name == "manifest.test.counter" && c.Value == 3)
		}
		if !found {
			t.Fatalf("metric snapshot missing test counter: %+v", got.Metrics.Counters)
		}
		if got.GoVersion == "" || got.Start == "" {
			t.Fatalf("environment fields empty: %+v", got)
		}
	})
}

func TestReadManifestMissing(t *testing.T) {
	if _, err := ReadManifest(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing manifest accepted")
	}
}
