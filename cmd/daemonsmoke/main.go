// Command daemonsmoke is the end-to-end smoke harness for savatd (run
// as `make daemon-smoke`). It builds the daemon, starts it on a random
// port with a temporary state directory, and drives the full campaign
// lifecycle over the HTTP API:
//
//  1. submit a 3×3 campaign and cancel it mid-run via DELETE,
//  2. resubmit the identical spec and watch it resume: the finished
//     cells are restored from the store (cached cells > 0),
//  3. stream the progress events (NDJSON),
//  4. fetch the finished matrix and diff it bit-for-bit against a
//     direct in-process savat.RunSpec of the same spec,
//  5. SIGKILL the daemon mid-campaign — the job status read just
//     before the kill must show cells still outstanding — restart it on
//     the same state directory, and watch the resubmitted campaign
//     resume from the durable cell store (a SIGKILL skips every
//     shutdown path, so each resumed cell must have come through the
//     store's write-behind flusher) and compute the rest, finishing
//     bit-identical to a direct run,
//  6. run a power-channel campaign through the same cancel/resume
//     cycle: the channel dimension must reach the daemon's fingerprint
//     and cell keys intact, and the resumed matrix must be
//     bit-identical to a direct in-process run of the same spec.
//
// Any divergence, HTTP error, or timeout exits non-zero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/savat"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "daemon-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("daemon-smoke: PASS")
}

// smokeSpec is the campaign the smoke run submits: a 3×3 grid with
// one-second captures and three repetitions, enough work (run with
// -parallelism 1) that the mid-run DELETE below lands with over twenty
// cells still outstanding — a margin that has to absorb the simulator
// getting faster release over release, so err well on the slow side.
func smokeSpec() savat.CampaignSpec {
	spec := savat.DefaultCampaignSpec()
	spec.Config = savat.FastConfig()
	spec.Config.Duration = 1.0
	spec.Events = []savat.Event{savat.ADD, savat.LDM, savat.DIV}
	spec.Repeats = 3
	spec.Seed = 11
	return spec
}

func run() error {
	tmp, err := os.MkdirTemp("", "daemonsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Build the daemon binary; `go run` would put a wrapper process
	// between us and savatd and swallow the SIGTERM at the end.
	bin := filepath.Join(tmp, "savatd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/savatd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building savatd: %w", err)
	}

	stateDir := filepath.Join(tmp, "state")
	daemon, base, err := startDaemon(bin, stateDir)
	if err != nil {
		return err
	}
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	fmt.Println("daemon-smoke: daemon at", base)

	spec := smokeSpec()
	total := len(spec.Events) * len(spec.Events) * spec.Repeats

	// Submit and cancel mid-run: wait for two cells to stream, then
	// DELETE the campaign.
	first, err := submit(base, spec)
	if err != nil {
		return err
	}
	fmt.Println("daemon-smoke: submitted", first.ID)
	if err := streamEvents(base, first.ID, 2); err != nil {
		return err
	}
	// DELETE requests cancellation; the job reaches the cancelled state
	// asynchronously once the engine unwinds.
	if _, err := cancel(base, first.ID); err != nil {
		return err
	}
	final, err := awaitTerminal(base, first.ID)
	if err != nil {
		return err
	}
	if final.State != service.StateCancelled {
		return fmt.Errorf("job %s after DELETE: %s, want cancelled", first.ID, final.State)
	}
	fmt.Printf("daemon-smoke: cancelled %s after %d/%d cells\n", first.ID, final.Stats.Done, total)

	// Resubmit the identical spec: the store must restore the cancelled
	// run's finished cells.
	second, err := submit(base, spec)
	if err != nil {
		return err
	}
	if second.Fingerprint != first.Fingerprint {
		return fmt.Errorf("same spec, different fingerprints: %s vs %s", second.Fingerprint, first.Fingerprint)
	}
	if err := streamEvents(base, second.ID, total); err != nil {
		return err
	}
	final, err = awaitTerminal(base, second.ID)
	if err != nil {
		return err
	}
	if final.State != service.StateDone {
		return fmt.Errorf("resumed job %s: state %s, error %q", second.ID, final.State, final.Error)
	}
	if final.Stats.Cached == 0 {
		return fmt.Errorf("resumed job %s recomputed everything; nothing was restored from the store", second.ID)
	}
	fmt.Printf("daemon-smoke: resumed %s (%d cells restored from the store, %d computed)\n",
		second.ID, final.Stats.Cached, final.Stats.Computed)

	// The daemon's matrix must match a direct in-process run bit for bit.
	var served savat.MatrixStats
	if err := getJSON(base+"/v1/campaigns/"+second.ID+"/result", &served); err != nil {
		return err
	}
	direct, err := savat.RunSpec(spec, savat.CampaignOptions{})
	if err != nil {
		return err
	}
	a, _ := json.Marshal(served.Cells)
	b, _ := json.Marshal(direct.Cells)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("daemon result diverges from direct run:\n%s\nvs\n%s", a, b)
	}
	fmt.Println("daemon-smoke: matrix bit-identical to direct run")

	// Phase 5: SIGKILL mid-campaign. A fresh spec (different seed) avoids
	// the cells already persisted above, so the restarted daemon can only
	// resume from cells the durable store flushed before the kill. All
	// eleven events make it 363 cells — seconds of work at -parallelism
	// 1, far more than the flush wait below — so the kill lands with
	// most of the campaign still outstanding.
	spec2 := smokeSpec()
	spec2.Seed = 23
	spec2.Events = savat.Events()
	total2 := len(spec2.Events) * len(spec2.Events) * spec2.Repeats
	killed, err := submit(base, spec2)
	if err != nil {
		return err
	}
	fmt.Println("daemon-smoke: submitted", killed.ID, "(kill phase)")
	if err := streamEvents(base, killed.ID, 3); err != nil {
		return err
	}
	// Give the store's write-behind flusher (25 ms cadence) time to make
	// the streamed cells durable, then kill without any shutdown path.
	time.Sleep(150 * time.Millisecond)
	var beforeKill service.Job
	if err := getJSON(base+"/v1/campaigns/"+killed.ID, &beforeKill); err != nil {
		return err
	}
	if beforeKill.Stats.Done >= total2 {
		return fmt.Errorf("kill-phase job %s finished all %d cells before the kill; the phase would prove nothing", killed.ID, total2)
	}
	if err := daemon.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	daemon.Wait()
	fmt.Printf("daemon-smoke: daemon SIGKILLed mid-campaign after %d/%d cells\n", beforeKill.Stats.Done, total2)

	daemon, base, err = startDaemon(bin, stateDir)
	if err != nil {
		return fmt.Errorf("restarting after SIGKILL: %w", err)
	}
	fmt.Println("daemon-smoke: restarted at", base)

	resumed, err := submit(base, spec2)
	if err != nil {
		return err
	}
	if resumed.Fingerprint != killed.Fingerprint {
		return fmt.Errorf("same spec, different fingerprints: %s vs %s", resumed.Fingerprint, killed.Fingerprint)
	}
	final, err = awaitTerminal(base, resumed.ID)
	if err != nil {
		return err
	}
	if final.State != service.StateDone {
		return fmt.Errorf("post-kill job %s: state %s, error %q", resumed.ID, final.State, final.Error)
	}
	if final.Stats.Cached == 0 {
		return fmt.Errorf("post-kill job %s recomputed everything; the store recovered nothing", resumed.ID)
	}
	if final.Stats.Computed == 0 {
		return fmt.Errorf("post-kill job %s computed nothing; the kill did not land mid-campaign", resumed.ID)
	}
	fmt.Printf("daemon-smoke: resumed %s after SIGKILL (%d cells from the store, %d computed)\n",
		resumed.ID, final.Stats.Cached, final.Stats.Computed)

	var served2 savat.MatrixStats
	if err := getJSON(base+"/v1/campaigns/"+resumed.ID+"/result", &served2); err != nil {
		return err
	}
	direct2, err := savat.RunSpec(spec2, savat.CampaignOptions{})
	if err != nil {
		return err
	}
	a, _ = json.Marshal(served2.Cells)
	b, _ = json.Marshal(direct2.Cells)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("post-kill result diverges from direct run:\n%s\nvs\n%s", a, b)
	}
	fmt.Println("daemon-smoke: post-kill matrix bit-identical to direct run")

	// Phase 6: a conducted-channel campaign through the cancel/resume
	// cycle. The channel dimension is part of the spec's fingerprint and
	// cell keys, so the resumed run may only restore cells the power
	// campaign itself finished — never the EM cells persisted above.
	spec3 := smokeSpec()
	spec3.Config.Channel = "power"
	spec3.Config.Environment = machine.Channels()["power"].Environment()
	spec3.Seed = 31
	pj, err := submit(base, spec3)
	if err != nil {
		return err
	}
	fmt.Println("daemon-smoke: submitted", pj.ID, "(power channel)")
	if err := streamEvents(base, pj.ID, 2); err != nil {
		return err
	}
	if _, err := cancel(base, pj.ID); err != nil {
		return err
	}
	if final, err = awaitTerminal(base, pj.ID); err != nil {
		return err
	}
	if final.State != service.StateCancelled {
		return fmt.Errorf("power job %s after DELETE: %s, want cancelled", pj.ID, final.State)
	}
	pr, err := submit(base, spec3)
	if err != nil {
		return err
	}
	if pr.Fingerprint != pj.Fingerprint {
		return fmt.Errorf("same power spec, different fingerprints: %s vs %s", pr.Fingerprint, pj.Fingerprint)
	}
	if pr.Fingerprint == killed.Fingerprint {
		return fmt.Errorf("power campaign fingerprint collides with the EM campaign's")
	}
	if final, err = awaitTerminal(base, pr.ID); err != nil {
		return err
	}
	if final.State != service.StateDone {
		return fmt.Errorf("resumed power job %s: state %s, error %q", pr.ID, final.State, final.Error)
	}
	if final.Stats.Cached == 0 {
		return fmt.Errorf("resumed power job %s recomputed everything; nothing was restored from the store", pr.ID)
	}
	fmt.Printf("daemon-smoke: resumed power campaign %s (%d cells restored from the store, %d computed)\n",
		pr.ID, final.Stats.Cached, final.Stats.Computed)

	var served3 savat.MatrixStats
	if err := getJSON(base+"/v1/campaigns/"+pr.ID+"/result", &served3); err != nil {
		return err
	}
	direct3, err := savat.RunSpec(spec3, savat.CampaignOptions{})
	if err != nil {
		return err
	}
	a, _ = json.Marshal(served3.Cells)
	b, _ = json.Marshal(direct3.Cells)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("power-channel result diverges from direct run:\n%s\nvs\n%s", a, b)
	}
	fmt.Println("daemon-smoke: power-channel matrix bit-identical to direct run")
	return nil
}

// startDaemon launches the built savatd on a random port over stateDir
// and returns the process and its base URL.
func startDaemon(bin, stateDir string) (*exec.Cmd, string, error) {
	daemon := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-state-dir", stateDir,
		"-max-active", "1",
		"-parallelism", "1",
	)
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return nil, "", fmt.Errorf("starting savatd: %w", err)
	}
	base, err := listenAddr(stdout)
	if err != nil {
		daemon.Process.Kill()
		daemon.Wait()
		return nil, "", err
	}
	return daemon, base, nil
}

// listenAddr reads the daemon's startup line ("savatd: listening on
// http://ADDR") and returns the base URL.
func listenAddr(stdout interface{ Read([]byte) (int, error) }) (string, error) {
	type result struct {
		base string
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println("daemon-smoke: savatd:", line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				ch <- result{base: strings.TrimSpace(line[i+len("listening on "):])}
				// Keep draining so the daemon never blocks on stdout.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- result{err: fmt.Errorf("savatd exited before announcing its address")}
	}()
	select {
	case r := <-ch:
		return r.base, r.err
	case <-time.After(30 * time.Second):
		return "", fmt.Errorf("timed out waiting for savatd to listen")
	}
}

func submit(base string, spec savat.CampaignSpec) (service.Job, error) {
	var jb service.Job
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return jb, err
	}
	body, err := json.Marshal(service.SubmitRequest{Spec: specJSON, Tenant: "smoke"})
	if err != nil {
		return jb, err
	}
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return jb, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return jb, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	return jb, json.NewDecoder(resp.Body).Decode(&jb)
}

// streamEvents reads the NDJSON event stream until n events arrived,
// then drops the connection (the daemon must tolerate that).
func streamEvents(base, id string, n int) error {
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for seen < n && sc.Scan() {
		var ev engine.ProgressEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad event line %q: %v", sc.Text(), err)
		}
		seen++
	}
	if seen < n {
		return fmt.Errorf("event stream for %s ended after %d events, want %d", id, seen, n)
	}
	return nil
}

func cancel(base, id string) (service.Job, error) {
	var jb service.Job
	req, err := http.NewRequest("DELETE", base+"/v1/campaigns/"+id, nil)
	if err != nil {
		return jb, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return jb, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jb, fmt.Errorf("cancel %s: status %d", id, resp.StatusCode)
	}
	return jb, json.NewDecoder(resp.Body).Decode(&jb)
}

func awaitTerminal(base, id string) (service.Job, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var jb service.Job
		if err := getJSON(base+"/v1/campaigns/"+id, &jb); err != nil {
			return jb, err
		}
		if jb.State.Terminal() {
			return jb, nil
		}
		if time.Now().After(deadline) {
			return jb, fmt.Errorf("job %s still %s after 2m", id, jb.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
