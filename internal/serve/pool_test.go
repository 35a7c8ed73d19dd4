package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"fairbench/internal/engine"
	"fairbench/internal/sched"
)

// poolHosts is the configured pool of the POST /pool tests: one local
// host and one remote host with a command prefix.
var poolHosts = []sched.Host{
	{Name: "h1", Slots: 2},
	{Name: "h2", Slots: 1, Transport: "remote", Cmd: []string{"ssh", "h2", "/usr/local/bin/fairbench"}},
}

// rejectedPoolBodies are POST /pool bodies the daemon must answer with
// 400 before any scheduler sees them.
var rejectedPoolBodies = []struct{ name, body string }{
	{"transport", `{"join":[{"name":"h1","transport":"remote"}]}`},
	{"cmd", `{"join":[{"name":"h2","cmd":["sh","-c","id"]}]}`},
	{"unknown name", `{"join":[{"name":"intruder","slots":4}]}`},
	{"no name", `{"join":[{"slots":4}]}`},
	{"repeated name", `{"join":[{"name":"h1"},{"name":"h1","slots":3}]}`},
	{"negative slots", `{"join":[{"name":"h1","slots":-1}]}`},
	{"no change", `{}`},
	{"not json", `join h1`},
}

// postPool sends body to the daemon's POST /pool handler.
func postPool(h http.Handler, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/pool", bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// pending returns the pool update waiting on ups, if any.
func pending(ups <-chan sched.PoolUpdate) (sched.PoolUpdate, bool) {
	select {
	case up := <-ups:
		return up, true
	default:
		return sched.PoolUpdate{}, false
	}
}

// TestPoolJoinsOnlyConfiguredHosts: POST /pool admits only hosts of the
// configured pool and lets the body set nothing but their slots. Every
// other join is a 400 that reaches no scheduler; a drained host
// re-admitted by name joins with its configured transport and command.
func TestPoolJoinsOnlyConfiguredHosts(t *testing.T) {
	s, _ := newServer(t, Config{Run: engine.RunOptions{Sched: &sched.Options{Hosts: poolHosts}}})
	h := s.Handler()
	ups, cancel := s.pool.Subscribe()
	defer cancel()

	for _, tc := range rejectedPoolBodies {
		if code, body := postPool(h, []byte(tc.body)); code != http.StatusBadRequest {
			t.Errorf("%s: POST /pool answered %d %s, want 400", tc.name, code, body)
		}
		if up, ok := pending(ups); ok {
			t.Errorf("%s: rejected body reached the scheduler as %+v", tc.name, up)
		}
	}

	if code, body := postPool(h, []byte(`{"leave":["h2"]}`)); code != http.StatusOK {
		t.Fatalf("leave answered %d %s", code, body)
	}
	if up, ok := pending(ups); !ok || !slices.Equal(up.Leave, []string{"h2"}) || len(up.Join) != 0 {
		t.Fatalf("leave reached the scheduler as %+v (delivered %v)", up, ok)
	}
	code, body := postPool(h, []byte(`{"join":[{"name":"h2","slots":3}]}`))
	var counts map[string]int
	if err := json.Unmarshal([]byte(body), &counts); code != http.StatusOK || err != nil ||
		!reflect.DeepEqual(counts, map[string]int{"joined": 1, "left": 0}) {
		t.Fatalf("re-admit answered %d %q", code, body)
	}
	want := poolHosts[1]
	want.Slots = 3
	if up, ok := pending(ups); !ok || !reflect.DeepEqual(up.Join, []sched.Host{want}) {
		t.Fatalf("re-admit reached the scheduler as %+v (delivered %v), want join %+v", up, ok, want)
	}
}

// FuzzPoolRequest feeds POST /pool arbitrary bodies. The handler never
// panics, a rejected body reaches no scheduler, and an accepted one
// joins only configured (name, transport, cmd) triples.
func FuzzPoolRequest(f *testing.F) {
	for _, tc := range rejectedPoolBodies {
		f.Add([]byte(tc.body))
	}
	f.Add([]byte(`{"join":[{"name":"h1"},{"name":"h2","slots":5}],"leave":["h1"]}`))
	f.Add([]byte(`{"join":[{"NAME":"h2","Slots":2}]}`))
	s, err := New(Config{StateDir: f.TempDir(), Run: engine.RunOptions{Sched: &sched.Options{Hosts: poolHosts}}})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	ups, cancel := s.pool.Subscribe()
	f.Cleanup(cancel)

	f.Fuzz(func(t *testing.T, body []byte) {
		code, resp := postPool(h, body)
		up, ok := pending(ups)
		if code != http.StatusOK {
			if ok {
				t.Fatalf("body %q answered %d yet reached the scheduler as %+v", body, code, up)
			}
			return
		}
		if !ok {
			t.Fatalf("body %q answered 200 %s but reached no scheduler", body, resp)
		}
		for _, j := range up.Join {
			i := slices.IndexFunc(poolHosts, func(c sched.Host) bool { return c.Name == j.Name })
			if i < 0 || j.Transport != poolHosts[i].Transport || !slices.Equal(j.Cmd, poolHosts[i].Cmd) {
				t.Fatalf("body %q joined %+v, not a configured host", body, j)
			}
		}
	})
}
