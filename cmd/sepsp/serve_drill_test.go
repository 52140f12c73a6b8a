package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a Writer safe for the drill's concurrent readers: run()
// writes stderr from several goroutines (slog, discovery line) while the
// test polls it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeDrill is the live-telemetry chaos drill: it runs the real serve
// command with fault injection and the HTTP endpoint mounted, scrapes
// /metrics, /healthz, and /flightrecorder over real HTTP while the server
// is under chaos load, validates the Prometheus exposition with a strict
// parser, then shuts the whole thing down with a real SIGINT and checks
// the graceful-drain path still produces the run summary. `make
// serve-drill` runs exactly this test.
func TestServeDrill(t *testing.T) {
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
			"serve", "-clients", "4", "-requests", "200",
			"-chaos", "100", "-chaosseed", "7", "-timeout", "2s",
			"-listen", "127.0.0.1:0", "-linger", "60s", "-log-level", "warn",
		}, &stdout, &stderr)
	}()

	// The serve command prints one stable discovery line when the endpoint
	// is up; external tooling (and this drill) parses it for the port.
	addrRe := regexp.MustCompile(`telemetry: listening on (http://\S+)`)
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no discovery line on stderr within 30s:\n%s", stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	get := func(path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != 200 {
			return "", fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return string(body), nil
	}

	// Scrape until the chaos load has produced decided queries and at least
	// one failure event in the flight recorder (rate 100‰ makes this fast).
	var metrics, flight string
	for {
		if time.Now().After(deadline) {
			t.Fatalf("drill did not reach a scrapable failure state\nmetrics:\n%s\nflight:\n%s", metrics, flight)
		}
		var err error
		if metrics, err = get("/metrics"); err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		if flight, err = get("/flightrecorder"); err != nil {
			t.Fatalf("/flightrecorder: %v", err)
		}
		if strings.Contains(flight, `"kind": "failure"`) &&
			!strings.Contains(metrics, `sepsp_server_queries_total{outcome="ok"} 0`+"\n") {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	families := parsePrometheus(t, metrics)
	for _, want := range []string{
		"sepsp_server_queries_total",
		"sepsp_server_degraded_queries_total",
		"sepsp_server_waves_total",
		"sepsp_retry_backoffs_total",
		"sepsp_fallback_engaged_total",
		"sepsp_server_queue_wait_seconds",
		"sepsp_server_compute_seconds",
		"sepsp_server_wave_size",
		"sepsp_server_queue_depth",
		"sepsp_worker_busy_iterations",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("exposition missing family %q", want)
		}
	}
	for _, hist := range []string{"sepsp_server_queue_wait_seconds", "sepsp_server_compute_seconds"} {
		for _, q := range []string{"0.5", "0.99"} {
			if !strings.Contains(metrics, hist+`_quantile{q="`+q+`"}`) {
				t.Errorf("missing %s p%s quantile gauge", hist, q)
			}
		}
	}

	var dump struct {
		Capacity int `json:"capacity"`
		Events   []struct {
			Kind    string `json:"kind"`
			Outcome string `json:"outcome"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(flight), &dump); err != nil {
		t.Fatalf("/flightrecorder is not valid JSON: %v", err)
	}
	failures := 0
	for _, e := range dump.Events {
		if e.Kind == "failure" {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("flight recorder holds no failure events under chaos")
	}

	health, err := get("/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.Unmarshal([]byte(health), &hz); err != nil {
		t.Fatalf("/healthz is not valid JSON: %v\n%s", err, health)
	}
	for _, key := range []string{"closed", "degraded", "queue_depth", "requests", "waves"} {
		if _, ok := hz[key]; !ok {
			t.Errorf("/healthz missing %q:\n%s", key, health)
		}
	}

	// Real SIGINT: the serve command must drain gracefully, return control
	// to run(), and still print the summary (the satellite contract that a
	// Ctrl-C never loses a run's numbers).
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not shut down within 20s of SIGINT")
	}
	out := stdout.String()
	for _, want := range []string{"serve: 200 requests, 4 clients", "waves=", "chaos: injected panics="} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// parsePrometheus is a strict text-exposition (0.0.4) checker: every
// sample line must parse, belong to a family declared by a preceding TYPE
// comment, and histogram series must be internally consistent (cumulative
// buckets monotone, le="+Inf" equal to _count). Returns the family→type
// map. Malformed exposition fails the test.
func parsePrometheus(t *testing.T, text string) map[string]string {
	t.Helper()
	families := map[string]string{} // name → type
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (-?[0-9.eE+-]+)$`)
	labelRe := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)

	// histogram consistency state, keyed by series (name + labels sans le)
	type histState struct {
		lastCum  float64
		inf      float64
		hasInf   bool
		count    float64
		hasCount bool
	}
	hists := map[string]*histState{}
	histSeries := func(name, labels string) *histState {
		var kept []string
		for _, l := range strings.Split(labels, ",") {
			if l != "" && !strings.HasPrefix(l, "le=") {
				kept = append(kept, l)
			}
		}
		key := name + "|" + strings.Join(kept, ",")
		h := hists[key]
		if h == nil {
			h = &histState{}
			hists[key] = h
		}
		return h
	}

	// baseFamily maps a sample name to its declared family, accounting for
	// histogram suffixes.
	baseFamily := func(name string) (string, string, bool) {
		if typ, ok := families[name]; ok {
			return name, typ, true
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if typ, ok := families[base]; ok && typ == "histogram" {
					return base, typ, true
				}
			}
		}
		return "", "", false
	}

	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE comment: %q", ln+1, line)
			}
			name, typ := parts[2], parts[3]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("line %d: unknown metric type %q", ln+1, typ)
			}
			if old, dup := families[name]; dup {
				t.Fatalf("line %d: family %q declared twice (%s, %s)", ln+1, name, old, typ)
			}
			families[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", ln+1, line)
		}
		var le string
		hasLe := false
		name, labels, valStr := m[1], m[2], m[3]
		for _, l := range strings.Split(labels, ",") {
			if l == "" {
				continue
			}
			if !labelRe.MatchString(l) {
				t.Fatalf("line %d: malformed label %q in %q", ln+1, l, line)
			}
			if strings.HasPrefix(l, "le=") {
				hasLe, le = true, strings.Trim(strings.TrimPrefix(l, "le="), `"`)
			}
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		base, typ, ok := baseFamily(name)
		if !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE declaration", ln+1, name)
		}
		if typ == "histogram" {
			h := histSeries(base, labels)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if !hasLe {
					t.Fatalf("line %d: histogram bucket without le label: %q", ln+1, line)
				}
				if v < h.lastCum {
					t.Fatalf("line %d: cumulative bucket decreased (%g < %g): %q", ln+1, v, h.lastCum, line)
				}
				h.lastCum = v
				if le == "+Inf" {
					h.inf, h.hasInf = v, true
				}
			case strings.HasSuffix(name, "_count"):
				h.count, h.hasCount = v, true
			}
		}
	}
	for key, h := range hists {
		if !h.hasInf || !h.hasCount {
			t.Errorf("histogram %s missing +Inf bucket or _count", key)
		} else if h.inf != h.count {
			t.Errorf("histogram %s: le=\"+Inf\" bucket %g != _count %g", key, h.inf, h.count)
		}
	}
	return families
}
