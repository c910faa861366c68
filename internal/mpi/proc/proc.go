// Package proc runs a supervised mpi world across processes: a supervisor
// creates the world (shmem segment or tcp coordinator), spawns one worker
// process per rank with the transport's attach handle (inherited fd or
// environment), and collects each worker's JSON result envelope; a worker
// recognizes itself by environment, attaches to the world, runs exactly
// one rank, and reports back through a result file.
//
// The contract between the halves is deliberately small:
//
//   - fd 3 is the segment file (os/exec ExtraFiles order) for shmem
//     worlds; tcp worlds attach by BRICK_TCP_WORLD (addr|worldID|size)
//     instead.
//   - BRICK_WORKER_RANK is the rank this process runs.
//   - BRICK_WORKER_SPEC is the path of a file holding the caller's opaque
//     spec bytes (typically a JSON-encoded run configuration).
//   - BRICK_WORKER_RESULT is the path the worker writes its Envelope to.
//   - BRICK_WORKER_BIN optionally overrides the worker binary the
//     supervisor spawns (default: the supervisor's own executable, which
//     must call the worker hook — harness.WorkerMain — early in main).
//   - BRICK_WORKER_LOGS optionally names the directory for per-rank
//     worker logs (default: a temp dir that is removed on success).
//
// Everything else a worker needs — its incarnation, the checkpoint step a
// respawned epoch restores from — lives in the world itself (the segment
// header, or the tcp coordinator's WELCOME), so a respawn is spawned with
// the identical environment as a first life.
//
// A worker that reaches its body always exits 0 and carries failures —
// including world aborts — inside the envelope's Err field; a nonzero exit
// therefore means the process died hard (panic outside the protocol,
// SIGKILL, OOM). Without a recovery policy the supervisor kills the world
// so surviving workers unwind instead of spinning on a dead peer; with one
// (Options.Recover) it runs cross-process recovery rounds — quarantine the
// segment, respawn the dead rank from the latest checkpoint, release the
// parked survivors — until the run completes or the policy gives up.
package proc

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/bricklab/brick/internal/mpi"
)

// Environment variable names of the worker contract.
const (
	EnvRank   = "BRICK_WORKER_RANK"
	EnvSpec   = "BRICK_WORKER_SPEC"
	EnvResult = "BRICK_WORKER_RESULT"
	EnvBin    = "BRICK_WORKER_BIN"
	EnvLogs   = "BRICK_WORKER_LOGS"
)

// segmentFD is the inherited segment file descriptor: the first
// ExtraFiles entry after stdin/stdout/stderr.
const segmentFD = 3

// IsWorker reports whether this process was spawned as a rank worker.
// Binaries that can host workers call it (via harness.WorkerMain) at the
// top of main, before flag parsing.
func IsWorker() bool { return os.Getenv(EnvRank) != "" }

// Worker is the worker-side half of the contract, returned by Attach.
type Worker struct {
	// Rank is the single rank this process runs.
	Rank int
	// Incarnation is this process's life number for its rank: 0 for a
	// first spawn, bumped once per crash-respawn cycle (read from the
	// segment's per-rank incarnation word at attach).
	Incarnation uint64
	// Spec holds the supervisor's opaque spec bytes.
	Spec []byte

	resultPath string
}

// Envelope is one worker's result, written to its result file and
// collected by the supervisor. Err carries the rank's failure — including
// a world abort — as a rendered string; Result the caller's payload;
// Incarnation which life of the rank produced it.
type Envelope struct {
	Rank        int             `json:"rank"`
	Incarnation uint64          `json:"incarnation,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Err         string          `json:"err,omitempty"`
}

// Death describes a hard worker death: the process exited nonzero or on a
// signal instead of reporting an envelope.
type Death struct {
	// Rank and Incarnation identify which life of which rank died.
	Rank        int
	Incarnation uint64
	// Signal names the fatal signal ("SIGKILL", "SIGSEGV", ...) when the
	// process was signaled; empty for a plain nonzero exit, in which case
	// Code holds the exit status.
	Signal string
	Code   int
	// Err is the underlying wait error.
	Err error
}

// How renders the death's mechanism: the signal name, or the exit status.
func (d *Death) How() string {
	if d.Signal != "" {
		return d.Signal
	}
	return fmt.Sprintf("exit status %d", d.Code)
}

func (d *Death) String() string {
	return fmt.Sprintf("rank %d worker (incarnation %d) died: %s", d.Rank, d.Incarnation, d.How())
}

// signame maps fatal signals to their conventional names; Go's
// syscall.Signal.String renders prose ("killed") that log scrapers and
// tests cannot match portably.
func signame(s syscall.Signal) string {
	switch s {
	case syscall.SIGKILL:
		return "SIGKILL"
	case syscall.SIGSEGV:
		return "SIGSEGV"
	case syscall.SIGABRT:
		return "SIGABRT"
	case syscall.SIGBUS:
		return "SIGBUS"
	case syscall.SIGILL:
		return "SIGILL"
	case syscall.SIGFPE:
		return "SIGFPE"
	case syscall.SIGTERM:
		return "SIGTERM"
	case syscall.SIGINT:
		return "SIGINT"
	}
	return fmt.Sprintf("signal %d", int(s))
}

// deathOf classifies a nonzero Wait result.
func deathOf(rank int, inc uint64, err error) *Death {
	d := &Death{Rank: rank, Incarnation: inc, Code: -1, Err: err}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok {
			if ws.Signaled() {
				d.Signal = signame(ws.Signal())
				return d
			}
			d.Code = ws.ExitStatus()
			return d
		}
		d.Code = ee.ExitCode()
	}
	return d
}

// Attach joins this worker process to its world: it reads the contract
// from the environment, maps the inherited segment, and returns the worker
// descriptor plus the attached world. The caller runs its rank with
// World.RunRank and finishes with Worker.Report.
func Attach() (*Worker, *mpi.World, error) {
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return nil, nil, fmt.Errorf("proc: bad %s %q: %v", EnvRank, os.Getenv(EnvRank), err)
	}
	resultPath := os.Getenv(EnvResult)
	if resultPath == "" {
		return nil, nil, fmt.Errorf("proc: %s not set", EnvResult)
	}
	spec, err := os.ReadFile(os.Getenv(EnvSpec))
	if err != nil {
		return nil, nil, fmt.Errorf("proc: reading spec: %w", err)
	}
	var w *mpi.World
	if os.Getenv(mpi.EnvTCPWorld) != "" {
		w, err = mpi.AttachTCPWorld(rank)
		if err != nil {
			return nil, nil, err
		}
	} else {
		seg := os.NewFile(segmentFD, "brick-shmem-segment")
		if seg == nil {
			return nil, nil, fmt.Errorf("proc: segment fd %d not inherited", segmentFD)
		}
		w, err = mpi.AttachShmemWorld(seg)
		if err != nil {
			return nil, nil, err
		}
	}
	if rank < 0 || rank >= w.Size() {
		w.Close()
		return nil, nil, fmt.Errorf("proc: rank %d out of range (world size %d)", rank, w.Size())
	}
	return &Worker{
		Rank:        rank,
		Incarnation: w.Incarnation(rank),
		Spec:        spec,
		resultPath:  resultPath,
	}, w, nil
}

// Report writes the worker's envelope: result is JSON-encoded (nil leaves
// Result empty) and runErr, when non-nil, is rendered into Err. The write
// is atomic (temp file + rename) so the supervisor never reads a torn
// envelope from a worker killed mid-write.
func (wk *Worker) Report(result any, runErr error) error {
	env := Envelope{Rank: wk.Rank, Incarnation: wk.Incarnation}
	if result != nil {
		b, err := json.Marshal(result)
		if err != nil {
			return fmt.Errorf("proc: encoding rank %d result: %w", wk.Rank, err)
		}
		env.Result = b
	}
	if runErr != nil {
		env.Err = runErr.Error()
	}
	b, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("proc: encoding rank %d envelope: %w", wk.Rank, err)
	}
	tmp := wk.resultPath + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, wk.resultPath)
}

// Options configures the supervisor's spawn.
type Options struct {
	// LogDir receives per-rank worker logs (rank<N>.log, combined
	// stdout+stderr; a respawned incarnation appends to its rank's log);
	// empty resolves EnvLogs, then a temp dir removed when every worker
	// exits cleanly and kept (with a notice) otherwise.
	LogDir string
	// Recover, when non-nil, arms cross-process recovery: instead of
	// killing the run on the first failure, the supervisor runs recovery
	// rounds. On each round — triggered by a hard worker death, or by a
	// published world abort with every live rank parked — it waits for
	// quiescence and calls Recover with the first hard death of the round
	// (nil for a soft abort; PublishedAbort reads the abort). A retry
	// verdict names the checkpoint step
	// to restore (-1 to restart from scratch): the supervisor quarantines
	// the segment and respawns the dead ranks' processes. On give-up the
	// parked survivors unwind through their envelopes and Run returns the
	// death (or the envelopes, for a soft abort) as it would without
	// recovery. Workers must park at the cross-process recovery barrier
	// when their world aborts (mpi.World.ParkForRecovery) for rounds
	// to converge.
	//
	// A nil Recover is the policy that always gives up, run through the
	// same round: the first hard death kills the world so the survivors
	// exit with the abort in their envelopes, and Run returns the death
	// once every worker exited (a survivor that cannot exit is killed after
	// the round's convergence timeout). Soft aborts ride the envelopes; the
	// supervisor does not poll for them.
	Recover func(death *Death) (restoreStep int, retry bool)
}

// convergeTimeout bounds how long a recovery round waits for every rank to
// park, exit, or die before the supervisor gives up and kills the remaining
// workers. A miss means a worker wedged so hard it cannot even reach the
// recovery barrier.
const convergeTimeout = 2 * time.Minute

// Run spawns one worker process per rank of w (a shmem world created by
// the supervisor), passes each the spec bytes, and waits for all of them.
// It returns every worker's envelope, ascending by rank.
//
// Failure handling is two-level. A worker that exits nonzero or vanishes
// without an envelope died hard: without a recovery policy Run kills the
// world — releasing the surviving workers' cross-process waits — waits for
// the rest (up to the convergence timeout), and returns an error naming
// how the worker died (signal or exit status, incarnation) with its log
// tail. Workers that report protocol-level failures (world aborts) exit
// zero; those failures come back inside the envelopes for the caller to
// interpret. With
// Options.Recover armed, failures first go through recovery rounds; only
// a give-up verdict (or an unrecoverable state: a rank completed and
// exited, a convergence timeout) surfaces them.
func Run(w *mpi.World, spec []byte, opt Options) ([]Envelope, error) {
	if !w.CanSuperviseWorkers() {
		return nil, fmt.Errorf("proc: transport %q cannot supervise worker processes", w.Transport())
	}
	bin := os.Getenv(EnvBin)
	if bin == "" {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("proc: resolving worker binary: %w", err)
		}
		bin = exe
	}
	logDir, logDirOwned := opt.LogDir, false
	if logDir == "" {
		logDir = os.Getenv(EnvLogs)
	}
	if logDir == "" {
		d, err := os.MkdirTemp("", "brick-workers-*")
		if err != nil {
			return nil, fmt.Errorf("proc: log dir: %w", err)
		}
		logDir, logDirOwned = d, true
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, fmt.Errorf("proc: log dir: %w", err)
	}
	workDir, err := os.MkdirTemp("", "brick-proc-*")
	if err != nil {
		return nil, fmt.Errorf("proc: work dir: %w", err)
	}
	defer os.RemoveAll(workDir)
	specPath := filepath.Join(workDir, "spec.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		return nil, fmt.Errorf("proc: writing spec: %w", err)
	}

	size := w.Size()
	sup := &supervisor{
		w: w, opt: opt, size: size,
		bin: bin, logDir: logDir,
		specPath: specPath,
		resPaths: make([]string, size),
		logs:     make([]*os.File, size),
		cmds:     make([]*exec.Cmd, size),
		state:    make([]workerState, size),
		done:     make(chan outcome, size*4),
	}
	for r := 0; r < size; r++ {
		sup.resPaths[r] = filepath.Join(workDir, fmt.Sprintf("rank%d.json", r))
		lf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("rank%d.log", r)))
		if err != nil {
			return nil, fmt.Errorf("proc: rank %d log: %w", r, err)
		}
		sup.logs[r] = lf
	}
	defer func() {
		for _, lf := range sup.logs {
			lf.Close()
		}
	}()

	envs, err := sup.run()
	if err != nil {
		return nil, err
	}
	if logDirOwned {
		os.RemoveAll(logDir)
	}
	return envs, nil
}

type workerState int

const (
	wsRunning workerState = iota
	wsExited              // clean exit; envelope collected at the end
	wsDead                // died hard this round, respawn pending or terminal
)

type outcome struct {
	rank int
	err  error // non-nil = hard death
}

// supervisor is the state of one Run: per-rank processes, their log files
// (held open across respawns so incarnations append to one log), and the
// outcome channel worker-wait goroutines post to.
type supervisor struct {
	w    *mpi.World
	opt  Options
	size int

	bin, logDir, specPath string
	resPaths              []string
	logs                  []*os.File
	cmds                  []*exec.Cmd
	state                 []workerState
	running               int
	done                  chan outcome
}

// spawn launches rank r's worker process (first life or respawn: the
// environment is identical; the world carries incarnation and restore
// state).
func (s *supervisor) spawn(r int) error {
	cmd := exec.Command(s.bin)
	cmd.Env = append(os.Environ(),
		EnvRank+"="+strconv.Itoa(r),
		EnvSpec+"="+s.specPath,
		EnvResult+"="+s.resPaths[r],
	)
	cmd.Env = append(cmd.Env, s.w.WorkerSpawnEnv()...)
	cmd.Stdout, cmd.Stderr = s.logs[r], s.logs[r]
	cmd.ExtraFiles = s.w.WorkerSpawnFiles()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("proc: spawning rank %d worker: %w", r, err)
	}
	s.cmds[r] = cmd
	s.state[r] = wsRunning
	s.running++
	go func() { s.done <- outcome{rank: r, err: cmd.Wait()} }()
	return nil
}

// deathError renders the terminal hard-death error: the substring
// "worker died hard" and the log tail are load-bearing for callers and
// log scrapers.
func (s *supervisor) deathError(d *Death) error {
	return fmt.Errorf("proc: rank %d worker died hard (%s, incarnation %d); logs in %s\n%s",
		d.Rank, d.How(), d.Incarnation, s.logDir,
		logTail(filepath.Join(s.logDir, fmt.Sprintf("rank%d.log", d.Rank))))
}

// collect reads every rank's envelope after all workers exited cleanly.
func (s *supervisor) collect() ([]Envelope, error) {
	envs := make([]Envelope, s.size)
	for r := 0; r < s.size; r++ {
		b, err := os.ReadFile(s.resPaths[r])
		if err != nil {
			return nil, fmt.Errorf("proc: rank %d exited clean but left no envelope (%v); logs in %s\n%s",
				r, err, s.logDir, logTail(filepath.Join(s.logDir, fmt.Sprintf("rank%d.log", r))))
		}
		if envs[r], err = DecodeEnvelope(b, r); err != nil {
			return nil, err
		}
	}
	return envs, nil
}

// DecodeEnvelope decodes the bytes of rank's result file as the supervisor
// collects them: an envelope that does not parse, or that claims another
// rank, is an error.
func DecodeEnvelope(b []byte, rank int) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(b, &e); err != nil {
		return Envelope{}, fmt.Errorf("proc: rank %d envelope: %w", rank, err)
	}
	if e.Rank != rank {
		return Envelope{}, fmt.Errorf("proc: rank %d envelope claims rank %d", rank, e.Rank)
	}
	return e, nil
}

// reap drains outcomes until no worker is running, killing the world once
// (if not already dead) so survivors unwind.
func (s *supervisor) reap(cause error) {
	if s.running > 0 && cause != nil {
		s.w.Kill(cause)
	}
	for s.running > 0 {
		oc := <-s.done
		s.state[oc.rank] = wsExited
		if oc.err != nil {
			s.state[oc.rank] = wsDead
		}
		s.running--
	}
}

// run spawns every worker and runs the one outcome loop: a hard death, or
// with a policy a soft abort, starts a recovery round. Without a policy
// every round gives up, so the first hard death surfaces as the error and
// soft aborts ride the envelopes.
func (s *supervisor) run() ([]Envelope, error) {
	for r := 0; r < s.size; r++ {
		if err := s.spawn(r); err != nil {
			// Some workers are already running against a world that will
			// never be complete; kill it so they unwind, then reap them.
			s.reap(err)
			return nil, err
		}
	}
	attempt := 0
	// Only a policy polls for soft aborts: a run without one must not wake
	// its supervisor every 2 ms.
	var soft <-chan time.Time
	if s.opt.Recover != nil {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		soft = tick.C
	}
	for {
		if s.running == 0 {
			// All exited cleanly — no round pending (deaths are handled the
			// moment their outcome arrives below).
			return s.collect()
		}
		var dead []*Death
		select {
		case oc := <-s.done:
			s.running--
			if oc.err == nil {
				s.state[oc.rank] = wsExited
				continue
			}
			s.state[oc.rank] = wsDead
			dead = append(dead, deathOf(oc.rank, s.w.Incarnation(oc.rank), oc.err))
		case <-soft:
			// Soft-abort round: some rank published a world abort (injected
			// panic, CRC corruption, watchdog stall) and no process died.
			// The round begins once the abort is visible; convergence below
			// waits out the ranks still unwinding toward the barrier.
			if _, _, ok := s.w.PublishedAbort(); !ok {
				continue
			}
		}

		// --- recovery round ---
		attempt++
		if len(dead) > 0 {
			// Ensure the abort is world-wide so survivors unwind and park
			// (or, without a policy, exit with the abort in their
			// envelopes) instead of blocking on the dead peer forever.
			s.w.Kill(fmt.Errorf("proc: %v", dead[0]))
		}

		// Convergence: every rank parked, exited, or dead.
		deadline := time.Now().Add(convergeTimeout)
		for {
			drained := true
			select {
			case oc := <-s.done:
				s.running--
				if oc.err == nil {
					s.state[oc.rank] = wsExited
				} else {
					s.state[oc.rank] = wsDead
					dead = append(dead, deathOf(oc.rank, s.w.Incarnation(oc.rank), oc.err))
				}
				drained = false
			default:
			}
			var want []int
			for r := 0; r < s.size; r++ {
				if s.state[r] == wsRunning {
					want = append(want, r)
				}
			}
			missing := s.w.AwaitParked(want, time.Now().Add(10*time.Millisecond))
			if len(missing) == 0 && drained {
				break
			}
			if time.Now().After(deadline) {
				err := fmt.Errorf("proc: recovery round %d did not converge within %v (ranks %v neither parked nor exited)",
					attempt, convergeTimeout, missing)
				for _, r := range missing {
					if s.cmds[r] != nil && s.cmds[r].Process != nil {
						s.cmds[r].Process.Kill()
					}
				}
				s.w.GiveUpRound()
				s.reap(err)
				return nil, err
			}
		}

		exited := 0
		for r := 0; r < s.size; r++ {
			if s.state[r] == wsExited {
				exited++
			}
		}
		var firstDeath *Death
		if len(dead) > 0 {
			firstDeath = dead[0]
		}

		// Verdict. A completed rank's process already exited and cannot be
		// replayed (mirror of the in-process rule), so any clean exit
		// alongside a round forces give-up, as does a missing policy.
		retry, restoreStep := false, -1
		if exited == 0 && s.opt.Recover != nil {
			restoreStep, retry = s.opt.Recover(firstDeath)
		}
		if !retry {
			s.w.GiveUpRound()
			s.reap(nil) // parked survivors wake, report, and exit 0
			if firstDeath != nil {
				return nil, s.deathError(firstDeath)
			}
			// Soft give-up: failures ride in the envelopes, as without
			// recovery.
			return s.collect()
		}

		deadRanks := make([]int, 0, len(dead))
		for r := 0; r < s.size; r++ {
			if s.state[r] == wsDead {
				deadRanks = append(deadRanks, r)
			}
		}
		s.w.ResumeRound(deadRanks, restoreStep)
		for _, r := range deadRanks {
			if err := s.spawn(r); err != nil {
				s.reap(err)
				return nil, err
			}
		}
	}
}

// logTailBytes bounds how much of a dead worker's log the supervisor
// embeds in its error.
const logTailBytes = 4096

// logTail returns the last chunk of the file, prefixed per line, for
// embedding a dead worker's final output in the supervisor's error.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		return "  (no worker output captured)"
	}
	if len(b) > logTailBytes {
		b = b[len(b)-logTailBytes:]
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	for i := range lines {
		lines[i] = "  | " + lines[i]
	}
	return strings.Join(lines, "\n")
}
