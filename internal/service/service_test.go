package service

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/savat"
)

// smokeSpec is a tiny campaign for service tests: 2×2 events, 2
// repetitions, sixteenth-second captures.
func smokeSpec() savat.CampaignSpec {
	spec := savat.DefaultCampaignSpec()
	spec.Config = savat.FastConfig()
	spec.Config.Duration = 1.0 / 16
	spec.Events = []savat.Event{savat.ADD, savat.LDM}
	spec.Repeats = 2
	spec.Seed = 3
	return spec
}

func newServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func awaitDone(t *testing.T, s *Server, id string) Job {
	t.Helper()
	done, err := s.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", id)
	}
	jb, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return jb
}

func TestJobLifecycle(t *testing.T) {
	s := newServer(t, Options{})
	spec := smokeSpec()

	jb, err := s.Submit(spec, SubmitOptions{Tenant: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if jb.ID == "" || jb.Fingerprint == "" {
		t.Fatalf("submission snapshot incomplete: %+v", jb)
	}

	events, stop, err := s.Subscribe(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	final := awaitDone(t, s, jb.ID)
	if final.State != StateDone {
		t.Fatalf("state %s, error %q", final.State, final.Error)
	}
	total := 2 * 2 * spec.Repeats
	if final.Stats.Done != total {
		t.Errorf("stats done %d, want %d", final.Stats.Done, total)
	}

	// The subscription carries every cell exactly once, then closes.
	got := 0
	for range events {
		got++
	}
	if got != total {
		t.Errorf("streamed %d events, want %d", got, total)
	}

	// The result matches a direct run of the same spec bit-for-bit.
	res, err := s.Result(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := savat.RunSpec(spec, savat.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Cells)
	b, _ := json.Marshal(direct.Cells)
	if string(a) != string(b) {
		t.Errorf("service result diverges from direct run:\n%s\nvs\n%s", a, b)
	}

	// A late subscriber still sees the full history.
	replay, stop2, err := s.Subscribe(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	got = 0
	for range replay {
		got++
	}
	if got != total {
		t.Errorf("replayed %d events, want %d", got, total)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := newServer(t, Options{})
	spec := smokeSpec()
	spec.Machine = "Cray1"
	if _, err := s.Submit(spec, SubmitOptions{}); !errors.Is(err, savat.ErrUnknownMachine) {
		t.Errorf("err = %v, want ErrUnknownMachine", err)
	}
	if _, err := s.Get("c999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

func TestResultBeforeDone(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1})
	// Two jobs: the second is queued while the first runs, so its
	// result is queryable-but-absent.
	first, err := s.Submit(smokeSpec(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := smokeSpec()
	spec.Seed = 4
	second, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(second.ID); !errors.Is(err, ErrNotDone) {
		t.Errorf("err = %v, want ErrNotDone", err)
	}
	awaitDone(t, s, first.ID)
	awaitDone(t, s, second.ID)
}

// Cancelling a running job with a state directory keeps its finished
// cells in the durable store: a server reopened on the same directory
// resumes the resubmitted spec with exactly those cells as cache hits,
// computes only the rest, and serves a matrix bit-identical to a
// direct run.
func TestCancelAndResume(t *testing.T) {
	dir := t.TempDir()
	s := newServer(t, Options{StateDir: dir, MaxActive: 1, Parallelism: 1})
	spec := smokeSpec()
	// Quarter-second captures and 18 serial cells: slow enough that the
	// cancel below always lands mid-run, never after the last cell.
	spec.Config.Duration = 0.25
	spec.Events = []savat.Event{savat.ADD, savat.LDM, savat.DIV}
	spec.Repeats = 2 // 18 cells

	jb, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Let a few cells finish, then cancel mid-run.
	events, stop, err := s.Subscribe(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for range events {
		seen++
		if seen == 2 {
			break
		}
	}
	stop()
	if _, err := s.Cancel(jb.ID); err != nil {
		t.Fatal(err)
	}
	cancelled := awaitDone(t, s, jb.ID)
	if cancelled.State != StateCancelled {
		t.Fatalf("state %s after cancel", cancelled.State)
	}

	// Cancel on a terminal job is a no-op.
	again, err := s.Cancel(jb.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("idempotent cancel: %+v, %v", again, err)
	}

	// Reopen the state directory in a new server and resubmit the
	// identical spec: the store serves the finished cells.
	s.Close()
	s = newServer(t, Options{StateDir: dir, MaxActive: 1, Parallelism: 1})
	resumed, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Fingerprint != jb.Fingerprint {
		t.Fatalf("same spec, different fingerprints: %s vs %s", resumed.Fingerprint, jb.Fingerprint)
	}
	final := awaitDone(t, s, resumed.ID)
	if final.State != StateDone {
		t.Fatalf("resumed job state %s, error %q", final.State, final.Error)
	}
	total := 3 * 3 * spec.Repeats
	if final.Stats.Done != total {
		t.Errorf("resumed done %d, want %d", final.Stats.Done, total)
	}
	if final.Stats.Cached != cancelled.Stats.Done || final.Stats.Computed != total-cancelled.Stats.Done {
		t.Errorf("resumed %d cached + %d computed; the cancelled job finished %d of %d",
			final.Stats.Cached, final.Stats.Computed, cancelled.Stats.Done, total)
	}
	if cancelled.Stats.Done == 0 {
		t.Error("the cancelled job finished no cells to resume from")
	}

	res, err := s.Result(resumed.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := savat.RunSpec(spec, savat.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(res.Cells)
	b, _ := json.Marshal(direct.Cells)
	if string(a) != string(b) {
		t.Errorf("resumed result diverges from direct run")
	}
}

// A queued job cancelled before its slot never starts, and the
// scheduler grants slots fairly: with one slot and tenants A (two
// queued jobs) and B (one), B's job runs before A's second.
func TestSchedulerFairness(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1})

	specN := func(seed int64) savat.CampaignSpec {
		sp := smokeSpec()
		sp.Seed = seed
		return sp
	}
	a1, err := s.Submit(specN(10), SubmitOptions{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Submit(specN(11), SubmitOptions{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s.Submit(specN(12), SubmitOptions{Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}

	awaitDone(t, s, a1.ID)
	awaitDone(t, s, a2.ID)
	awaitDone(t, s, b1.ID)

	ja, _ := s.Get(a2.ID)
	jb, _ := s.Get(b1.ID)
	if !jb.Started.Before(ja.Started) {
		t.Errorf("fairness: b's first job (started %v) should precede a's second (started %v)",
			jb.Started, ja.Started)
	}
}

// Higher priority wins within one tenant.
func TestSchedulerPriority(t *testing.T) {
	s := newServer(t, Options{MaxActive: 1})
	specN := func(seed int64) savat.CampaignSpec {
		sp := smokeSpec()
		sp.Seed = seed
		return sp
	}
	// First job occupies the slot; the queue then holds low before high.
	first, err := s.Submit(specN(20), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	low, err := s.Submit(specN(21), SubmitOptions{Priority: 1})
	if err != nil {
		t.Fatal(err)
	}
	high, err := s.Submit(specN(22), SubmitOptions{Priority: 9})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, s, first.ID)
	awaitDone(t, s, low.ID)
	awaitDone(t, s, high.ID)

	jl, _ := s.Get(low.ID)
	jh, _ := s.Get(high.ID)
	if !jh.Started.Before(jl.Started) {
		t.Errorf("priority: high (started %v) should precede low (started %v)", jh.Started, jl.Started)
	}
}

func TestClosedServerRejectsSubmit(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(smokeSpec(), SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}
