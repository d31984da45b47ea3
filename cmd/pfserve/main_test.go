package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/memtest/partialfaults/internal/service"
)

// bootServer starts pfserve on an ephemeral port and returns its base
// URL. The serve goroutine dies with the test process; the OS reclaims
// the listener.
func bootServer(t *testing.T, extra ...string) string {
	t.Helper()
	ready := make(chan string, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go run(args, io_Discard{}, io_Discard{}, ready)
	select {
	case addr := <-ready:
		return "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("server did not come up")
		return ""
	}
}

type io_Discard struct{}

func (io_Discard) Write(p []byte) (int, error) { return len(p), nil }

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errw, nil); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "flag") {
		t.Fatalf("stderr: %s", errw.String())
	}
}

func TestRunRejectsBadAddr(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-addr", "999.999.999.999:1"}, &out, &errw, nil); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestServeHealthzAndMatrix(t *testing.T) {
	base := bootServer(t, "-store", t.TempDir())
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	body := strings.NewReader(`{"tests":["MATS+"]}`)
	resp, err = http.Post(base+"/v1/matrix", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix: %d", resp.StatusCode)
	}
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if len(env.Result) == 0 {
		t.Fatal("empty matrix result")
	}
}

// TestServeTracedInventory drives the traced-sweep knob end to end
// over HTTP: a traced inventory answers, its repeat hits its store
// entry byte for byte, the dense spelling of the same request does not
// (the traced sweep can miss rows), and /v1/metrics reports the
// traced-sweep work.
func TestServeTracedInventory(t *testing.T) {
	base := bootServer(t, "-store", t.TempDir())
	grid := `"opens":[1],"rdefs":[1e3,1e4,1e5,1e6,1e7],"us":[0,0.66,1.32,1.98,2.64,3.3]`
	fetch := func(body string) (bool, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/inventory", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("inventory: %d", resp.StatusCode)
		}
		var env struct {
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return env.Cached, env.Result
	}
	cached, traced := fetch(`{"sweep":"traced",` + grid + `}`)
	if cached {
		t.Fatal("first traced request claims cached")
	}
	cached, again := fetch(`{"sweep":"traced",` + grid + `}`)
	if !cached {
		t.Fatal("repeated traced request missed its store entry")
	}
	if !bytes.Equal(traced, again) {
		t.Fatal("traced payload from the store differs from the fresh one")
	}
	if cached, _ := fetch(`{` + grid + `}`); cached {
		t.Fatal("dense request was served the traced store entry")
	}

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Trace struct {
			Planes    int     `json:"planes"`
			Simulated int     `json:"simulated"`
			Inferred  int     `json:"inferred"`
			Reduction float64 `json:"reduction"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Trace.Planes == 0 || m.Trace.Simulated == 0 {
		t.Fatalf("metrics missing traced-sweep work: %+v", m.Trace)
	}
}

// TestServeStress drives /v1/stress end to end over HTTP: a two-corner
// matrix on a reduced grid answers with per-corner inventories and a
// certificate, the repeated request hits the store byte for byte, and
// /v1/metrics reports the stress work.
func TestServeStress(t *testing.T) {
	base := bootServer(t, "-store", t.TempDir())
	req := `{"corners":"low-vdd","tests":["March PF"],"opens":[1,5],"rdefs":[1e4,1e6],"us":[0,1.5,3.3],"rows":2,"cols":2}`
	fetch := func() (bool, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/stress", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stress: %d", resp.StatusCode)
		}
		var env struct {
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return env.Cached, env.Result
	}
	cached, fresh := fetch()
	if cached {
		t.Fatal("first stress request claims cached")
	}
	var res struct {
		Corners []struct {
			Name      string            `json:"name"`
			Inventory []json.RawMessage `json:"inventory"`
		} `json:"corners"`
		Certificate struct {
			Claims []json.RawMessage `json:"claims"`
		} `json:"certificate"`
	}
	if err := json.Unmarshal(fresh, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Corners) != 2 || res.Corners[0].Name != "nominal" || res.Corners[1].Name != "low-vdd" {
		t.Fatalf("corners: %+v", res.Corners)
	}
	for _, c := range res.Corners {
		if len(c.Inventory) == 0 {
			t.Fatalf("corner %s has an empty inventory", c.Name)
		}
	}
	if len(res.Certificate.Claims) == 0 {
		t.Fatal("certificate has no claims")
	}

	cached, stored := fetch()
	if !cached {
		t.Fatal("repeated stress request missed the store")
	}
	if !bytes.Equal(fresh, stored) {
		t.Fatal("fresh and stored stress payloads differ")
	}

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Stress struct {
			Matrices uint64 `json:"matrices"`
			Corners  uint64 `json:"corners"`
		} `json:"stress"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Stress.Matrices != 1 || m.Stress.Corners != 2 {
		t.Fatalf("stress metrics = %+v, want 1 matrix over 2 corners", m.Stress)
	}
}

// TestConcurrentDuplicatesCollapse boots the real server, fires
// concurrent identical sweep requests over HTTP and asserts the
// singleflight layer collapsed the duplicates (via /v1/metrics).
func TestConcurrentDuplicatesCollapse(t *testing.T) {
	base := bootServer(t, "-parallel", "2")
	const n = 8
	// A spice-engine sweep: slow enough that all eight clients are in
	// flight together, so the duplicates genuinely race.
	req := `{"engine":"spice","opens":[1,4],"rdefs":[1e4,1e6],"us":[0,3.3]}`
	results := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/inventory", "application/json", strings.NewReader(req))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			var env struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				errs[i] = err
				return
			}
			results[i] = env.Result
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}

	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Requests              map[string]uint64 `json:"requests"`
		SingleflightCollapsed uint64            `json:"singleflight_collapsed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["inventory"] != n {
		t.Fatalf("request counter = %d, want %d", m.Requests["inventory"], n)
	}
	if m.SingleflightCollapsed == 0 {
		t.Fatal("no requests collapsed — singleflight did not engage")
	}
}

// TestServeRejectsOversizedBody drives the body bound over a real
// connection: a body past service.MaxBodyBytes gets 413.
func TestServeRejectsOversizedBody(t *testing.T) {
	base := bootServer(t)
	body := `{"opens":[1]` + strings.Repeat(" ", service.MaxBodyBytes) + `}`
	resp, err := http.Post(base+"/v1/inventory", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}
