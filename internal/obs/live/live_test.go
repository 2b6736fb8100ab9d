package live

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"clustercast/internal/obs"
)

// withEnabled mirrors the obs test helper: metric recording on, restored
// to the zero-overhead default afterwards.
func withEnabled(t *testing.T, f func()) {
	t.Helper()
	obs.Enable()
	defer obs.Disable()
	f()
}

// goldenHeartbeat is a fully-populated record with every section active.
func goldenHeartbeat() Heartbeat {
	return Heartbeat{
		Seq:        3,
		ElapsedNs:  1500000000,
		Goroutines: 9,
		HeapAlloc:  1048576,
		HeapInuse:  2097152,
		HeapSys:    4194304,
		TotalAlloc: 8388608,
		NumGC:      2,
		Progress: []obs.ProgressView{
			{Name: "replicate", Done: 640, Total: 0, Rate: 426.667, ETASeconds: -1},
			{Name: "sweep.points", Done: 3, Total: 12, Rate: 2, ETASeconds: 4.5},
		},
		Counters: []obs.MetricValue{
			{Name: "broadcast.runs", Value: 640},
			{Name: "des.events", Value: 12345},
		},
		Gauges: []obs.MetricValue{
			{Name: "des.wheel_high_water", Value: 77},
		},
		Stages: []obs.StageStat{
			{Name: "dynamic25.kernel", Count: 3, WallNs: 900000, AllocBytes: 4096},
		},
	}
}

// TestHeartbeatGoldenFieldOrder pins the wire format byte for byte: field
// order, field presence, float precision. If this changes, downstream
// heartbeat consumers (cmd/trace -heartbeat, manetsimd) break.
func TestHeartbeatGoldenFieldOrder(t *testing.T) {
	hb := goldenHeartbeat()
	got := string(hb.AppendJSONL(nil))
	want := `{"seq":3,"elapsed_ns":1500000000,"goroutines":9,` +
		`"heap_alloc":1048576,"heap_inuse":2097152,"heap_sys":4194304,` +
		`"total_alloc":8388608,"num_gc":2,` +
		`"progress":[` +
		`{"name":"replicate","done":640,"total":0,"rate":426.667,"eta_s":-1.000},` +
		`{"name":"sweep.points","done":3,"total":12,"rate":2.000,"eta_s":4.500}],` +
		`"counters":[{"name":"broadcast.runs","value":640},{"name":"des.events","value":12345}],` +
		`"gauges":[{"name":"des.wheel_high_water","value":77}],` +
		`"stages":[{"name":"dynamic25.kernel","count":3,"wall_ns":900000,"alloc_bytes":4096}]}` + "\n"
	if got != want {
		t.Fatalf("heartbeat rendering drifted:\n got %s\nwant %s", got, want)
	}
}

func TestHeartbeatEmptySections(t *testing.T) {
	hb := Heartbeat{Seq: 1, Goroutines: 2}
	got := string(hb.AppendJSONL(nil))
	if !strings.Contains(got, `"progress":[],"counters":[],"gauges":[],"stages":[]`) {
		t.Fatalf("empty sections must render as []: %s", got)
	}
	if _, err := ParseLine([]byte(got)); err != nil {
		t.Fatalf("empty-section record did not validate: %v", err)
	}
}

func TestParseLineRoundTrip(t *testing.T) {
	hb := goldenHeartbeat()
	line := hb.AppendJSONL(nil)
	parsed, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if string(parsed.AppendJSONL(nil)) != string(line) {
		t.Fatal("parse/re-encode not a fixed point")
	}
}

func TestParseLineRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `{"seq":1,"elapsed_ns":0,"goroutines":1,"heap_alloc":0,"heap_inuse":0,"heap_sys":0,"total_alloc":0,"num_gc":0,"bogus":1,"progress":[],"counters":[],"gauges":[],"stages":[]}`,
		"field order":    `{"elapsed_ns":0,"seq":1,"goroutines":1,"heap_alloc":0,"heap_inuse":0,"heap_sys":0,"total_alloc":0,"num_gc":0,"progress":[],"counters":[],"gauges":[],"stages":[]}`,
		"missing fields": `{"seq":1,"goroutines":1}`,
		"zero seq":       `{"seq":0,"elapsed_ns":0,"goroutines":1,"heap_alloc":0,"heap_inuse":0,"heap_sys":0,"total_alloc":0,"num_gc":0,"progress":[],"counters":[],"gauges":[],"stages":[]}`,
		"not json":       `heartbeat?`,
	}
	for name, line := range cases {
		if _, err := ParseLine([]byte(line)); err == nil {
			t.Errorf("%s: ParseLine accepted %s", name, line)
		}
	}
}

func TestReadHeartbeatsSeqGap(t *testing.T) {
	var buf bytes.Buffer
	for _, seq := range []int64{1, 3} {
		hb := Heartbeat{Seq: seq, Goroutines: 1}
		buf.Write(hb.AppendJSONL(nil))
	}
	if _, err := ReadHeartbeats(&buf); err == nil {
		t.Fatal("seq gap not rejected")
	}
}

// TestSamplerStream drives a sampler against a private registry with a
// fake clock and validates the emitted stream end to end.
func TestSamplerStream(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("work.items")
	p := reg.Progress("work")
	var buf bytes.Buffer
	clock := time.Unix(1000, 0)
	s := NewSampler(&buf, Options{
		Registry: reg,
		Now:      func() time.Time { return clock },
	})
	withEnabled(t, func() {
		p.AddTotal(10)
		for i := 0; i < 3; i++ {
			c.Add(2)
			p.Add(2)
			clock = clock.Add(time.Second)
			if err := s.Sample(); err != nil {
				t.Fatal(err)
			}
		}
	})
	hbs, err := ReadHeartbeats(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(hbs) != 3 {
		t.Fatalf("got %d heartbeats, want 3", len(hbs))
	}
	last := hbs[2]
	if last.ElapsedNs != (3 * time.Second).Nanoseconds() {
		t.Fatalf("elapsed_ns = %d", last.ElapsedNs)
	}
	if len(last.Counters) != 1 || last.Counters[0].Value != 6 {
		t.Fatalf("counters = %+v", last.Counters)
	}
	if len(last.Progress) != 1 || last.Progress[0].Done != 6 || last.Progress[0].Total != 10 {
		t.Fatalf("progress = %+v", last.Progress)
	}
}

// TestSamplerStartStop runs the real background loop briefly and checks
// Stop's final heartbeat makes the stream non-empty even when the run is
// shorter than the interval.
func TestSamplerStartStop(t *testing.T) {
	var buf syncBuffer
	s := NewSampler(&buf, Options{Interval: time.Hour})
	s.Start()
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	hbs, err := ReadHeartbeats(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(hbs) != 1 {
		t.Fatalf("got %d heartbeats, want the final one", len(hbs))
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer (the sampler loop writes
// from its own goroutine).
type syncBuffer struct {
	mu  chan struct{}
	buf bytes.Buffer
}

func (b *syncBuffer) lock() {
	if b.mu == nil {
		b.mu = make(chan struct{}, 1)
	}
	b.mu <- struct{}{}
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.lock()
	defer func() { <-b.mu }()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.lock()
	defer func() { <-b.mu }()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestServerEndpoints spins the HTTP server on an ephemeral port and
// scrapes every endpoint.
func TestServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	withEnabled(t, func() {
		reg.Counter("mac.collisions").Add(4)
		reg.Gauge("des.wheel_high_water").SetMax(17)
		reg.Progress("sweep").AddTotal(8)
		reg.Progress("sweep").Add(2)
	})
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"# TYPE clustercast_mac_collisions counter",
		"clustercast_mac_collisions 4",
		"clustercast_des_wheel_high_water 17",
		`clustercast_progress_done{task="sweep"} 2`,
		"clustercast_goroutines",
		"clustercast_heap_alloc_bytes",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	progress := get("/progress")
	if !strings.Contains(progress, `"name":"sweep"`) || !strings.Contains(progress, `"done":2`) {
		t.Errorf("/progress = %s", progress)
	}
	if got := get("/stages"); !strings.HasPrefix(got, "[") {
		t.Errorf("/stages = %s", got)
	}
	if got := get("/debug/pprof/cmdline"); got == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func TestPromName(t *testing.T) {
	if got := promName("broadcast.batch_runs"); got != "clustercast_broadcast_batch_runs" {
		t.Fatalf("promName = %s", got)
	}
	if got := promName("scale.dynamic25.heap-high"); got != "clustercast_scale_dynamic25_heap_high" {
		t.Fatalf("promName = %s", got)
	}
}
