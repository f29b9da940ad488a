package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/savat"
)

func submitBody(t *testing.T, spec savat.CampaignSpec, tenant string) *bytes.Buffer {
	t.Helper()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(SubmitRequest{Spec: specJSON, Tenant: tenant})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(body)
}

func TestHTTPCampaignLifecycle(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smokeSpec()
	total := 2 * 2 * spec.Repeats

	// Submit.
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", submitBody(t, spec, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var jb Job
	if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jb.ID == "" || jb.Tenant != "alice" {
		t.Fatalf("submit returned %+v", jb)
	}

	// Stream events as NDJSON until the campaign completes.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + jb.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev engine.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events++
	}
	resp.Body.Close()
	if events != total {
		t.Errorf("streamed %d events, want %d", events, total)
	}

	// Status.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateDone || got.Stats.Done != total {
		t.Fatalf("status %+v", got)
	}

	// List.
	resp, err = http.Get(ts.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var list listResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != jb.ID {
		t.Fatalf("list %+v", list)
	}

	// Result: bit-identical to a direct run of the same spec.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + jb.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res savat.MatrixStats
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	direct, err := savat.RunSpec(spec, savat.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Cells)
	b, _ := json.Marshal(direct.Cells)
	if string(a) != string(b) {
		t.Errorf("HTTP result diverges from direct run")
	}
}

func TestHTTPEventsSSE(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jb, err := s.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("GET", ts.URL+"/v1/campaigns/"+jb.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	frames := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "data: ") {
			t.Fatalf("bad SSE line %q", line)
		}
		var ev engine.ProgressEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		frames++
	}
	if want := 2 * 2 * smokeSpec().Repeats; frames != want {
		t.Errorf("streamed %d SSE frames, want %d", frames, want)
	}
}

func TestHTTPCancel(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1, Parallelism: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the slot with a slow campaign, then cancel a still-queued
	// job over HTTP. Quarter-second captures and many repetitions keep
	// the blocker busy: every repetition draws fresh per-stage seeds, so
	// the synthesis-product cache cannot collapse the work.
	slow := smokeSpec()
	slow.Config.Duration = 0.25
	slow.Repeats = 8
	running, err := s.Submit(slow, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := smokeSpec()
	spec.Seed = 99
	queued, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Issue the cancel only once the blocker is observed mid-run with
	// the victim still queued, so the DELETE races only the blocker's
	// remaining cells (hundreds of milliseconds), not its startup.
	deadline := time.Now().Add(time.Minute)
	for {
		rj, err := s.Get(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		qj, err := s.Get(queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rj.State == StateRunning && qj.State == StateQueued {
			break
		}
		if rj.State != StateQueued && rj.State != StateRunning {
			t.Fatalf("blocker finished (%s) before the queued job could be cancelled", rj.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never reached running+queued (blocker %s, victim %s)", rj.State, qj.State)
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var jb Job
	if err := json.NewDecoder(resp.Body).Decode(&jb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jb.State != StateCancelled {
		t.Fatalf("cancelled queued job is %s", jb.State)
	}
	awaitDone(t, s, running.ID)
}

func TestHTTPErrors(t *testing.T) {
	s := newServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: error body missing (%v)", path, err)
		}
		return resp.StatusCode
	}
	if st := get("/v1/campaigns/c999999"); st != http.StatusNotFound {
		t.Errorf("unknown id status %d", st)
	}
	if st := get("/v1/campaigns/c999999/result"); st != http.StatusNotFound {
		t.Errorf("unknown result status %d", st)
	}

	// A running (not done) job's result is a conflict.
	jb, err := s.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + jb.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jobNow, _ := s.Get(jb.ID); !jobNow.State.Terminal() && resp.StatusCode != http.StatusConflict {
		t.Errorf("unfinished result status %d", resp.StatusCode)
	}

	// Bad submissions: invalid JSON, missing spec, unknown field in the
	// spec, invalid spec values.
	for name, body := range map[string]string{
		"invalid-json":  `{`,
		"missing-spec":  `{}`,
		"unknown-field": `{"spec": {"machine": "Core2Duo", "sede": 1}}`,
		"bad-machine":   `{"spec": {"machine": "Cray1"}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// An oversized body is cut off at maxSubmitBytes with 413 and never
	// becomes a job.
	huge := `{"spec": {"machine": "` + strings.Repeat("x", maxSubmitBytes) + `"}}`
	resp, err = http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("oversized body: error body missing (%v)", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if n := len(s.List()); n != 1 {
		t.Errorf("%d jobs after the oversized submit, want 1", n)
	}
	awaitDone(t, s, jb.ID)
}

// FuzzSubmitBody throws arbitrary bodies at POST /v1/campaigns. Whatever
// the bytes, the handler must not panic and must answer 202 or a 4xx.
// The server's run slots are held full, so an accepted spec only queues:
// the target exercises admission, never a campaign.
func FuzzSubmitBody(f *testing.F) {
	valid, err := json.Marshal(smokeSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"spec": ` + string(valid) + `, "tenant": "t", "priority": 2}`))
	f.Add([]byte(`{"spec": {"machine": "Cray1"}}`))
	f.Add([]byte(`{"spec": {"machine": "Core2Duo", "sede": 1}}`))
	f.Add([]byte(`{"spec": null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.mu.Lock()
		s.active = s.opts.MaxActive
		s.mu.Unlock()

		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/campaigns", bytes.NewReader(body)))
		if w.Code != http.StatusAccepted && (w.Code < 400 || w.Code > 499) {
			t.Fatalf("status %d for body %q", w.Code, body)
		}
	})
}
