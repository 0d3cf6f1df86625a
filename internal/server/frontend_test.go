package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"smtfetch/internal/cluster"
	"smtfetch/internal/server"
)

// eachFrontEnd runs test against both sweep services: a server, and a
// coordinator whose one worker is that server. Both speak the protocol
// through the same server.FrontEnd, so each case must hold for both.
func eachFrontEnd(t *testing.T, test func(t *testing.T, url string)) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	co, err := cluster.New(cluster.Config{Workers: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	cs := httptest.NewServer(co)
	t.Cleanup(cs.Close)
	for _, fe := range []struct{ name, url string }{{"server", ts.URL}, {"coordinator", cs.URL}} {
		t.Run(fe.name, func(t *testing.T) { test(t, fe.url) })
	}
}

// post sends body to POST /sweep and returns the status and reply.
func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(msg)
}

// status answers GET path with its status code.
func status(t *testing.T, url, path string) int {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestSweepRequestValidation(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, url string) {
		for _, tc := range []struct {
			name, body string
		}{
			{"bad json", `{`},
			{"unknown field", `{"wrokloads": ["2_MIX"]}`},
			{"unknown workload", `{"workloads": ["9_NOPE"]}`},
			{"bad policy", `{"policies": ["ICOUNT"]}`},
			{"bad engine", `{"engines": ["quantum"]}`},
		} {
			if code, _ := post(t, url, tc.body); code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", tc.name, code)
			}
		}
		if code := status(t, url, "/sweep"); code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /sweep = %d, want 405", code)
		}
	})
}

// A body over the body cap is refused with 413 before anything runs: the
// request is async and otherwise valid, yet no job is created.
func TestOversizedSweepBodyRejected(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, url string) {
		body := `{"async": true, "workloads": ["2_MIX"], "sample": "` +
			strings.Repeat("x", server.MaxSweepRequestBytes) + `"}`
		if code, _ := post(t, url, body); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", code)
		}
		if code := status(t, url, "/jobs/job-1"); code != http.StatusNotFound {
			t.Fatalf("GET /jobs/job-1 = %d after an oversized request, want 404", code)
		}
	})
}

// A grid over MaxGridCells is refused with 400, naming the cap, before it
// is expanded: 70 000 seeds fit well under the body cap, yet no job is
// created and the answer comes at once.
func TestOversizedGridRejected(t *testing.T) {
	seeds := make([]uint64, 70_000)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	body, err := json.Marshal(server.SweepRequest{Async: true, Workloads: []string{"2_MIX"},
		Engines: []string{"stream"}, Policies: []string{"ICOUNT.1.8"}, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= server.MaxSweepRequestBytes {
		t.Fatalf("request body is %d bytes, want it under the %d-byte body cap", len(body), server.MaxSweepRequestBytes)
	}
	eachFrontEnd(t, func(t *testing.T, url string) {
		start := time.Now()
		code, msg := post(t, url, string(body))
		if code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", code)
		}
		if !strings.Contains(msg, "65536-cell cap") {
			t.Errorf("error %q does not name the cap", msg)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("rejection took %v", d)
		}
		if code := status(t, url, "/jobs/job-1"); code != http.StatusNotFound {
			t.Fatalf("GET /jobs/job-1 = %d after an oversized grid, want 404", code)
		}
	})
}

func TestUnknownJob(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, url string) {
		for _, path := range []string{"/jobs/job-999", "/jobs/job-999/results", "/jobs/"} {
			if code := status(t, url, path); code != http.StatusNotFound {
				t.Fatalf("GET %s = %d, want 404", path, code)
			}
		}
	})
}
