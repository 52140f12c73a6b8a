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
	"syscall"
	"testing"
	"time"
)

// TestServeReweightDrill is the zero-downtime reweighting drill: the real
// serve command under chaos load with a timer-driven -reweight reloading
// new weights every 150ms. The server must keep answering continuously
// across at least 3 epoch swaps (zero swap-attributable failures — the run
// exits 0, which requires every request to end in success or a typed chaos
// fault), /healthz must report the advancing epoch, and the summary must
// account for the swaps.
func TestServeReweightDrill(t *testing.T) {
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
			"serve", "-clients", "4", "-requests", "100000",
			"-chaos", "20", "-chaosseed", "11", "-timeout", "5s",
			"-reweight", "testdata/grid6-reweight.txt", "-reweight-every", "150ms",
			"-listen", "127.0.0.1:0", "-linger", "60s", "-log-level", "warn",
		}, &stdout, &stderr)
	}()

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

	// Watch /healthz until the epoch has advanced through >= 3 hot-swaps
	// (epoch 1 is the build; 4 means three completed reloads), checking
	// monotonicity on the way.
	var last float64
	for {
		if time.Now().After(deadline) {
			t.Fatalf("epoch did not reach 4 within the deadline (last seen %v)", last)
		}
		health, err := get("/healthz")
		if err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		var hz struct {
			Epoch      float64 `json:"epoch"`
			Rebuilding *bool   `json:"rebuilding"`
		}
		if err := json.Unmarshal([]byte(health), &hz); err != nil {
			t.Fatalf("/healthz is not valid JSON: %v\n%s", err, health)
		}
		if hz.Rebuilding == nil {
			t.Fatalf("/healthz missing \"rebuilding\":\n%s", health)
		}
		if hz.Epoch < last {
			t.Fatalf("/healthz epoch went backwards: %v -> %v", last, hz.Epoch)
		}
		last = hz.Epoch
		if hz.Epoch >= 4 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The lifecycle metric families must be live in the exposition.
	metrics, err := get("/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	for _, want := range []string{
		"sepsp_index_epoch",
		"sepsp_index_rebuilding",
		"sepsp_index_swaps_total",
		"sepsp_index_rebuild_failures_total",
		"sepsp_index_rebuild_duration_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The flight recorder tags swap events.
	flight, err := get("/flightrecorder")
	if err != nil {
		t.Fatalf("/flightrecorder: %v", err)
	}
	if !strings.Contains(flight, `"kind": "swap"`) {
		t.Error("flight recorder holds no swap events after 3 reloads")
	}

	// Drain gracefully; the run must exit clean — under chaos every request
	// ends in a correct answer or a typed fault, so a zero exit code is the
	// "no swap-attributable failures" check.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down within 30s of SIGINT")
	}
	out := stdout.String()
	swapRe := regexp.MustCompile(`reweight: swaps=(\d+) failures=0 epoch=(\d+)`)
	m := swapRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("summary missing clean reweight line:\n%s", out)
	}
	if swaps, _ := strconv.Atoi(m[1]); swaps < 3 {
		t.Fatalf("summary reports %d swaps, want >= 3:\n%s", swaps, out)
	}
}

// TestServeReweightSIGHUP checks the operational reload path: one SIGHUP,
// one epoch swap.
func TestServeReweightSIGHUP(t *testing.T) {
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
			"serve", "-clients", "2", "-requests", "100000",
			"-reweight", "testdata/grid6-reweight.txt",
			"-listen", "127.0.0.1:0", "-linger", "60s", "-log-level", "warn",
		}, &stdout, &stderr)
	}()

	addrRe := regexp.MustCompile(`telemetry: listening on (http://\S+)`)
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no discovery line within 30s:\n%s", stderr.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	epoch := func() float64 {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("/healthz: %v", err)
		}
		defer resp.Body.Close()
		var hz struct {
			Epoch float64 `json:"epoch"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatalf("/healthz decode: %v", err)
		}
		return hz.Epoch
	}
	if e := epoch(); e != 1 {
		t.Fatalf("initial epoch = %v, want 1", e)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	for epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("epoch did not advance after SIGHUP")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down after SIGINT")
	}
	if !strings.Contains(stdout.String(), "reweight: swaps=1 failures=0 epoch=2") {
		t.Fatalf("summary missing the SIGHUP swap:\n%s", stdout.String())
	}
}

// TestServeReweightSmallEdit checks that a small edit reweights
// incrementally and that the operator can see it: one SIGHUP reloads a file
// that changes a single edge weight, the swap's flight-recorder event and
// its "epoch swapped" log line report how many tree nodes the rebuild
// recomputed, and that count is positive and below the tree's node count.
func TestServeReweightSmallEdit(t *testing.T) {
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run([]string{
			"-graph", "testdata/grid6.txt", "-coords", "testdata/grid6.coords",
			"serve", "-clients", "2", "-requests", "100000",
			"-reweight", "testdata/grid6-edit.txt",
			"-listen", "127.0.0.1:0", "-linger", "60s", "-log-level", "info",
		}, &stdout, &stderr)
	}()

	addrRe := regexp.MustCompile(`telemetry: listening on (http://\S+)`)
	var base string
	deadline := time.Now().Add(30 * time.Second)
	for base == "" {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no discovery line within 30s:\n%s", stderr.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	swapRe := regexp.MustCompile(`msg="epoch swapped".* dirty_nodes=(\d+) tree_nodes=(\d+)`)
	var m []string
	for m == nil {
		if m = swapRe.FindStringSubmatch(stderr.String()); m == nil {
			if time.Now().After(deadline) {
				t.Fatalf("no epoch-swapped log line after SIGHUP:\n%s", stderr.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	dirty, _ := strconv.Atoi(m[1])
	nodes, _ := strconv.Atoi(m[2])
	if dirty <= 0 || dirty >= nodes {
		t.Fatalf("one-edge edit recomputed %d of %d tree nodes, want 0 < dirty < nodes", dirty, nodes)
	}

	resp, err := http.Get(base + "/flightrecorder")
	if err != nil {
		t.Fatalf("/flightrecorder: %v", err)
	}
	var fr struct {
		Events []struct {
			Kind       string `json:"kind"`
			Epoch      uint64 `json:"epoch"`
			DirtyNodes int    `json:"dirty_nodes"`
		} `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fr)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/flightrecorder decode: %v", err)
	}
	found := false
	for _, e := range fr.Events {
		if e.Kind == "swap" && e.Epoch == 2 {
			found = true
			if e.DirtyNodes != dirty {
				t.Fatalf("swap event dirty_nodes=%d, log line says %d", e.DirtyNodes, dirty)
			}
		}
	}
	if !found {
		t.Fatal("flight recorder holds no swap event for epoch 2")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down after SIGINT")
	}
}
