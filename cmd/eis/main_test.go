package main

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ecocharge/internal/eis"
)

func TestNewHandlerServes(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build is slow")
	}
	handler, desc, err := newHandler(handlerConfig{
		dataset: "Oldenburg", seed: 1,
	}, nil)
	if err != nil {
		t.Fatalf("newHandler: %v", err)
	}
	if !strings.Contains(desc, "Oldenburg") {
		t.Errorf("description %q", desc)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	// One real endpoint through the wired scenario.
	resp2, err := http.Get(ts.URL + "/api/v1/chargers?lat=53.1&lon=8.2&radius_m=100000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusOK || len(body) < 10 {
		t.Fatalf("chargers endpoint: status %d body %d bytes", resp2.StatusCode, len(body))
	}
}

func TestNewHandlerBadDataset(t *testing.T) {
	if _, _, err := newHandler(handlerConfig{dataset: "nope", seed: 1}, nil); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestNewHandlerFaultRateDescribed(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build is slow")
	}
	_, desc, err := newHandler(handlerConfig{
		dataset: "Oldenburg", seed: 1,
		faultRate: 0.3, faultSeed: 7,
	}, nil)
	if err != nil {
		t.Fatalf("newHandler: %v", err)
	}
	if !strings.Contains(desc, "fault rate 30%") {
		t.Errorf("description %q does not advertise the fault rate", desc)
	}
}

// TestRunGracefulShutdown exercises the signal-driven drain: cancel the run
// context (as SIGTERM would) and assert run returns cleanly after draining
// an in-flight request.
func TestRunGracefulShutdown(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-release
		}
		w.WriteHeader(http.StatusOK)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // run re-listens on the same port

	ctx, cancel := context.WithCancel(context.Background())
	logger := log.New(io.Discard, "", 0)
	runErr := make(chan error, 1)
	go func() { runErr <- eis.Serve(ctx, "eis", addr, handler, 5*time.Second, logger) }()

	// Wait for the listener, then park one request in the handler.
	base := "http://" + addr
	waitForServer(t, base+"/fast")
	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err == nil {
			resp.Body.Close()
		}
		slowDone <- err
	}()
	<-started

	cancel() // the SIGTERM path
	select {
	case err := <-runErr:
		t.Fatalf("run returned %v before draining the in-flight request", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after drain")
	}
}

func waitForServer(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server did not start listening")
}
