package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "Up.").Inc()
	srv := httptest.NewServer(NewMux(r))
	defer srv.Close()

	code, body := get(t, srv.URL+"/metrics")
	if code != 200 || !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}

	code, body = get(t, srv.URL+"/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get(t, srv.URL+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	code, body = get(t, srv.URL+"/debug/vars")
	if code != 200 || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %d", code)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Func("g", "", func() float64 { return 5 })
	addr, stop, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	code, body := get(t, "http://"+addr+"/metrics")
	if code != 200 || !strings.Contains(body, "g 5") {
		t.Errorf("served metrics = %d %q", code, body)
	}
}
