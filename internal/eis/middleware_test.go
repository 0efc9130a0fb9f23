package eis

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMiddlewareLogsRequests(t *testing.T) {
	var buf bytes.Buffer
	mw := &Middleware{Logger: log.New(&buf, "", 0)}
	h := mw.Wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(buf.String(), "GET /x -> 418") {
		t.Errorf("log line missing: %q", buf.String())
	}
}

func TestMiddlewareRecoversPanics(t *testing.T) {
	var buf bytes.Buffer
	mw := &Middleware{Logger: log.New(&buf, "", 0)}
	h := mw.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	assertJSONAnswer(t, resp, `{"error":"internal error"}`+"\n")
	if !strings.Contains(buf.String(), "panic") || !strings.Contains(buf.String(), "boom") {
		t.Errorf("panic not logged: %q", buf.String())
	}
}

func TestMiddlewareShedsLoad(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	mw := &Middleware{MaxInFlight: 2}
	h := mw.Wrap(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Occupy both slots.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	<-started
	<-started
	// Third request must be shed immediately.
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After")
	}
	assertJSONAnswer(t, resp, `{"error":"server overloaded"}`+"\n")
	close(release)
	wg.Wait()
}

// assertJSONAnswer fails unless resp is typed JSON, states its length and
// carries the body want.
func assertJSONAnswer(t *testing.T, resp *http.Response, want string) {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
		t.Errorf("Content-Type %q, want %q", ct, ContentTypeJSON)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("Content-Length %q, want %d", cl, len(want))
	}
	if string(body) != want {
		t.Errorf("body %q, want %q", body, want)
	}
}

func TestMiddlewareEndToEndWithServer(t *testing.T) {
	env := testEnv(t)
	srv := NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }})
	mw := &Middleware{MaxInFlight: 16}
	ts := httptest.NewServer(mw.Wrap(srv.Handler()))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	if !client.Healthy(context.Background()) {
		t.Fatal("wrapped server unhealthy")
	}
	center := env.Graph.Bounds().Center()
	if _, err := client.Chargers(context.Background(), center, 3000); err != nil {
		t.Fatalf("Chargers through middleware: %v", err)
	}
}
