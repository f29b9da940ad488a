package service

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/savat"
)

// scheduleLocked grants free run slots to queued jobs until MaxActive
// campaigns run or the queue is empty. Callers hold s.mu.
//
// Slot order is fair across tenants first: among queued jobs, the one
// whose tenant has been granted the fewest run slots so far (running
// and completed campaigns both count) wins, so a tenant submitting
// fifty campaigns cannot starve one submitting a single campaign. Ties
// fall to higher Priority, then to submission order (FIFO).
func (s *Server) scheduleLocked() {
	for s.active < s.opts.MaxActive {
		j := s.pickLocked()
		if j == nil {
			return
		}
		s.startLocked(j)
	}
}

// pickLocked selects the next queued job under the fairness policy, or
// nil when nothing is queued. Callers hold s.mu.
func (s *Server) pickLocked() *job {
	granted := make(map[string]int)
	for _, j := range s.order {
		if !j.started.IsZero() {
			granted[j.tenant]++
		}
	}
	var best *job
	for _, j := range s.order {
		if j.state != StateQueued {
			continue
		}
		if best == nil || queuedBefore(j, best, granted) {
			best = j
		}
	}
	return best
}

// queuedBefore reports whether a should be scheduled before b: fewest
// slots granted to its tenant so far, then higher priority, then
// earlier submission.
func queuedBefore(a, b *job, granted map[string]int) bool {
	if la, lb := granted[a.tenant], granted[b.tenant]; la != lb {
		return la < lb
	}
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// startLocked transitions a queued job to running and launches its
// campaign goroutines. Callers hold s.mu.
func (s *Server) startLocked(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	s.active++

	// The monitor is drained by a dedicated goroutine so the engine
	// never blocks on event fan-out; subscriber channels are sized for
	// the whole campaign, so the relay never blocks either.
	monitor := make(chan engine.ProgressEvent, 64)
	relayDone := make(chan struct{})
	s.wg.Add(2)
	go s.relayEvents(j, monitor, relayDone)
	go s.runJob(ctx, j, monitor, relayDone)
}

// relayEvents copies engine progress events into the job's history and
// live subscriptions until the engine closes the monitor, then signals
// relayDone so the job is finished only after every event reached its
// subscribers.
func (s *Server) relayEvents(j *job, monitor <-chan engine.ProgressEvent, relayDone chan<- struct{}) {
	defer s.wg.Done()
	defer close(relayDone)
	for ev := range monitor {
		s.mu.Lock()
		j.events = append(j.events, ev)
		j.stats = ev.Stats
		j.health = ev.Health
		for ch := range j.subs {
			select {
			case ch <- ev:
			default:
				// A subscriber that stopped reading loses events rather
				// than stalling the campaign; its buffer covers the whole
				// grid, so this only fires for abandoned readers.
			}
		}
		s.mu.Unlock()
	}
}

// runJob executes one campaign and finishes the job.
func (s *Server) runJob(ctx context.Context, j *job, monitor chan<- engine.ProgressEvent, relayDone <-chan struct{}) {
	defer s.wg.Done()
	defer j.cancel()

	res, err := savat.RunSpecContext(ctx, j.spec, savat.CampaignOptions{
		Parallelism: s.opts.Parallelism,
		Cache:       s.cache,
		Flight:      s.flight,
		Monitor:     monitor,
	})
	// The campaign closed the monitor; wait for the relay to drain it so
	// subscribers see every event before their channels close.
	<-relayDone

	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, res, nil)
	case ctx.Err() != nil:
		// Cancelled via Cancel or Close. Completed cells are already in
		// the shared cache, so a later submission of the same spec
		// resumes.
		s.finishLocked(j, StateCancelled, nil, context.Canceled)
	default:
		s.finishLocked(j, StateFailed, nil, err)
	}
	s.scheduleLocked()
}
