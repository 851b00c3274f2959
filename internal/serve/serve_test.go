package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"
)

func testHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) Status {
	t.Helper()
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	s, ts := testHTTPServer(t)
	resp := postJSON(t, ts.URL+"/campaigns", Request{
		Code: "FMXM", Device: "volta", TargetWidth: 0.25, Seed: 3, Workers: 8,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns: %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.Tool != "NVBitFI" {
		t.Fatalf("unexpected create status: %+v", st)
	}

	c, ok := s.Get(st.ID)
	if !ok {
		t.Fatalf("campaign %s not registered", st.ID)
	}
	waitDone(t, c)

	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	final := decodeStatus(t, resp)
	if final.State != StateDone || final.Trials == 0 {
		t.Fatalf("final status: %+v", final)
	}
	if final.Trials >= final.BaselineTrials {
		t.Fatalf("adaptive run used %d trials >= baseline %d", final.Trials, final.BaselineTrials)
	}

	// Counts endpoint must be canonical: two fetches, identical bytes.
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/counts")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		bodies = append(bodies, buf.Bytes())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("counts endpoint not stable:\n%s\n%s", bodies[0], bodies[1])
	}

	// List view includes the campaign.
	resp, err = http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("GET /campaigns: %+v", list)
	}
}

func TestHTTPStream(t *testing.T) {
	_, ts := testHTTPServer(t)
	st := decodeStatus(t, postJSON(t, ts.URL+"/campaigns", Request{
		Code: "FMXM", Device: "volta", TargetWidth: 0.25, Seed: 11, Workers: 8,
	}))
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	var events []Status
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Status
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	// A fast campaign can reach StateDone before the stream attaches, in
	// which case the handler legitimately delivers only the final
	// snapshot; otherwise incremental progress events must precede it.
	if len(events) == 0 {
		t.Fatal("stream delivered no events")
	}
	if len(events) < 2 && events[0].State != StateDone {
		t.Fatalf("stream delivered %d events, want incremental progress", len(events))
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("stream ended in state %q (%s)", last.State, last.Error)
	}
	// Trials are monotonically nondecreasing across events.
	for i := 1; i < len(events); i++ {
		if events[i].Trials < events[i-1].Trials {
			t.Fatalf("stream went backwards: %d then %d trials", events[i-1].Trials, events[i].Trials)
		}
	}
}

func TestHTTPRejectsBadRequests(t *testing.T) {
	_, ts := testHTTPServer(t)
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown code", Request{Code: "NOSUCH", Device: "volta"}},
		{"unknown device", Request{Code: "FMXM", Device: "pascal"}},
		{"sassifi on volta", Request{Code: "FMXM", Device: "volta", Tool: "sassifi"}},
		{"kepler library code", Request{Code: "FGEMM", Device: "kepler"}},
		{"fp16 under nvbitfi", Request{Code: "HMXM", Device: "volta"}},
		{"width over 1", Request{Code: "FMXM", Device: "volta", TargetWidth: 1.5}},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/campaigns", tc.req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	for _, path := range []string{"/campaigns/c999999", "/campaigns/c999999/counts"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// Create bodies are read up to maxRequestBytes and strictly: an
// oversized body, a misspelled field and data after the request object
// each get 400 and start nothing.
func TestHTTPRejectsMalformedBodies(t *testing.T) {
	s, ts := testHTTPServer(t)
	valid := `{"code":"FMXM","device":"volta","target_width":0.3,"seed":1`
	cases := []struct{ name, body, why string }{
		{"oversized", valid + strings.Repeat(" ", maxRequestBytes) + "}", "request body too large"},
		{"misspelled field", `{"code":"FMXM","device":"volta","target_widht":0.3}`, `unknown field "target_widht"`},
		{"trailing data", valid + `}{"seed":2}`, "trailing data"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], tc.why) {
			t.Errorf("%s: status %d, error %q; want 400 mentioning %q", tc.name, resp.StatusCode, body["error"], tc.why)
		}
	}
	s.mu.Lock()
	n := len(s.order)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("rejected bodies created %d campaigns", n)
	}
}

func TestHTTPMetrics(t *testing.T) {
	s, ts := testHTTPServer(t)
	c, err := s.Create(Request{Code: "FMXM", Device: "volta", TargetWidth: 0.3, Seed: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"gpurel_campaigns_active 0\n",
		"gpurel_campaigns_completed 1",
		"gpurel_trials_total",
		"gpurel_trials_per_sec",
		"gpurel_runner_cache_misses 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHTTPPprofGate(t *testing.T) {
	// Off by default.
	_, ts := testHTTPServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without the flag: %d", resp.StatusCode)
	}
	// On when asked.
	s2, err := New(Options{SpoolDir: t.TempDir(), EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof not served with the flag: %d", resp.StatusCode)
	}
}

// TestCheckScriptUnknownTier covers the CI entry point's argument
// guard: an unrecognized tier must fail loudly with the tier list, not
// silently run tier 1.
func TestCheckScriptUnknownTier(t *testing.T) {
	out, err := exec.Command("sh", "../../scripts/check.sh", "no-such-tier").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("check.sh no-such-tier: err %v (output %q), want a nonzero exit", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("check.sh no-such-tier exited %d, want 1", code)
	}
	text := string(out)
	if !strings.Contains(text, "unknown tier") {
		t.Fatalf("guard output does not name the problem:\n%s", text)
	}
	for _, tier := range []string{"full", "bench", "artifacts", "serve", "gates"} {
		if !strings.Contains(text, tier) {
			t.Fatalf("guard output does not list tier %q:\n%s", tier, text)
		}
	}
}

// TestCheckScriptKnownTiersStillParse ensures the guard recognizes the
// documented tiers and rejects the per-gate tiers the gates tier
// replaced. Tier execution is too heavy for a unit test, so this
// exercises the dispatcher alone via a dry-run marker the script honors
// before doing any work.
func TestCheckScriptKnownTiersStillParse(t *testing.T) {
	for _, tier := range []string{"crossval", "opt", "patterns", "duemode"} {
		cmd := exec.Command("sh", "../../scripts/check.sh", tier)
		cmd.Env = append(cmd.Environ(), "CHECK_SH_PARSE_ONLY=1")
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Fatalf("removed tier %q still accepted:\n%s", tier, out)
		}
	}
	for _, tier := range []string{"", "full", "bench", "artifacts", "serve", "gates"} {
		cmd := exec.Command("sh", "../../scripts/check.sh", tier)
		cmd.Env = append(cmd.Environ(), "CHECK_SH_PARSE_ONLY=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("tier %q rejected by the dispatcher: %v\n%s", tier, err, out)
		}
		if !strings.Contains(string(out), "tier ok") {
			t.Fatalf("tier %q: parse-only run produced %q", tier, out)
		}
	}
}
