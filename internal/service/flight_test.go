package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// slowInventory takes long enough (a few hundred ms, more under -race)
// for a second request to join its flight before it finishes.
const slowInventory = `{"opens":[1,3],"rdefs":[1e4,1e6,1e8],"us":[0,1.5,3.3,4.6]}`

// postCtx posts body under ctx and returns the status and body.
func postCtx(ctx context.Context, s *Server, path, body string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (g *flightGroup) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// TestLeaderCancelDoesNotPoisonFollowers is the regression test for
// singleflight follower poisoning: a follower collapsed into a flight
// must get the result even when the leader's client disconnects
// mid-computation, because the computation belongs to the flight, not
// to the leader's request.
func TestLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	s := newTestServer(t, Config{Parallelism: 2})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderDone := make(chan int, 1)
	go func() {
		code, _ := postCtx(leaderCtx, s, "/v1/inventory", slowInventory)
		leaderDone <- code
	}()
	waitFor(t, "the leader's flight", func() bool { return s.flights.inFlight() == 1 })

	type result struct {
		code int
		body []byte
	}
	followerDone := make(chan result, 1)
	go func() {
		code, body := postCtx(context.Background(), s, "/v1/inventory", slowInventory)
		followerDone <- result{code, body}
	}()
	waitFor(t, "the follower to join", func() bool { return s.flights.Collapsed() == 1 })
	cancelLeader()

	f := <-followerDone
	if f.code != http.StatusOK {
		t.Fatalf("follower: status %d after the leader left: %s", f.code, f.body)
	}
	var env envelope
	if err := json.Unmarshal(f.body, &env); err != nil || !env.Collapsed {
		t.Fatalf("follower: want a collapsed envelope, got %s (%v)", f.body, err)
	}
	if code := <-leaderDone; code != http.StatusGatewayTimeout {
		t.Fatalf("leader: status %d after its client left, want 504", code)
	}

	// The follower's answer is the inventory itself: a fresh request
	// (now a plain computation) returns the same bytes.
	fresh := postEnvelope(t, s, "/v1/inventory", slowInventory)
	if !bytes.Equal(fresh.Result, env.Result) {
		t.Fatal("the follower's result differs from a fresh computation")
	}
}

// TestFlightWaiterLeavesAlone: a waiter whose context ends returns its
// own error at once, while the flight runs on for the others.
func TestFlightWaiterLeavesAlone(t *testing.T) {
	g := newFlightGroup()
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan []byte, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), ctx.Err()
		})
		leaderDone <- v
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		shared bool
		err    error
	}
	followerDone := make(chan outcome, 1)
	go func() {
		_, shared, err := g.Do(ctx, "k", nil) // nil: joining must not compute
		followerDone <- outcome{shared, err}
	}()
	waitFor(t, "the follower to join", func() bool { return g.Collapsed() == 1 })
	cancel()
	if f := <-followerDone; !f.shared || f.err != context.Canceled {
		t.Fatalf("follower: shared=%v err=%v, want a shared flight left with context.Canceled", f.shared, f.err)
	}
	close(release)
	if v := <-leaderDone; string(v) != "v" {
		t.Fatalf("leader got %q after the follower left, want \"v\"", v)
	}
}

// TestFlightCancelledWhenAllLeave: once every waiter has gone the
// computation's context is cancelled, and the next caller starts a
// fresh flight instead of joining the abandoned one.
func TestFlightCancelledWhenAllLeave(t *testing.T) {
	g := newFlightGroup()
	stopped := make(chan struct{})
	started := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() {
		_, _, err := g.Do(ctx1, "k", func(ctx context.Context) ([]byte, error) {
			close(started)
			<-ctx.Done()
			close(stopped)
			return nil, ctx.Err()
		})
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := g.Do(ctx2, "k", nil)
		errs <- err
	}()
	waitFor(t, "the second waiter to join", func() bool { return g.Collapsed() == 1 })
	cancel1()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("first waiter to leave: %v", err)
	}
	select {
	case <-stopped:
		t.Fatal("the flight was cancelled while a waiter remained")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	<-errs
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("the flight was not cancelled after every waiter left")
	}
	v, shared, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || shared || string(v) != "fresh" {
		t.Fatalf("next caller: %q shared=%v err=%v, want a fresh flight", v, shared, err)
	}
}

// TestFlightPanicBecomesError: a panicking computation fails its
// flight instead of the process.
func TestFlightPanicBecomesError(t *testing.T) {
	g := newFlightGroup()
	_, _, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) { panic("boom") })
	if err == nil {
		t.Fatal("a panicking computation returned no error")
	}
	if g.inFlight() != 0 {
		t.Fatal("the panicked flight is still registered")
	}
}

// TestFlightWaitOutlivesWaiters pins that Wait covers a computation
// whose every caller has left: it returns only once the cancelled
// computation has returned, and gives up with ctx's error before.
func TestFlightWaitOutlivesWaiters(t *testing.T) {
	g := newFlightGroup()
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait on an idle group: %v", err)
	}
	release := make(chan struct{})
	ctx, leave := context.WithCancel(context.Background())
	left := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			<-fctx.Done() // cancelled once the only caller leaves
			<-release
			return nil, fctx.Err()
		})
		left <- err
	}()
	for g.inFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	leave()
	if err := <-left; err != context.Canceled {
		t.Fatalf("caller left with %v, want context.Canceled", err)
	}
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Wait(short); err != context.DeadlineExceeded {
		t.Fatalf("Wait with the computation still running: %v, want deadline exceeded", err)
	}
	close(release)
	if err := g.Wait(context.Background()); err != nil {
		t.Fatalf("Wait after the computation returned: %v", err)
	}
}

// TestShutdownWaitsForAbandonedFlight pins that Server.Shutdown returns
// only after a computation whose caller has left is done, so the outcome
// journal it closes is not closed under the computation.
func TestShutdownWaitsForAbandonedFlight(t *testing.T) {
	s, err := New(Config{StoreDir: t.TempDir(), Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, leave := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/inventory", bytes.NewReader([]byte(slowInventory))).WithContext(ctx)
	status := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		status <- rec.Code
	}()
	for s.flights.inFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	leave()
	if code := <-status; code != http.StatusGatewayTimeout {
		t.Fatalf("abandoned request: status %d, want 504", code)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.flights.mu.Lock()
	running := s.flights.running
	s.flights.mu.Unlock()
	if running != 0 {
		t.Fatalf("Shutdown returned with %d computations running", running)
	}
}
