package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// Host describes one member of the execution pool.
type Host struct {
	// Name labels the host in logs, reports, and errors. Required;
	// unique within a pool.
	Name string `json:"name"`
	// Slots is how many ranges the host runs concurrently (default 1).
	Slots int `json:"slots,omitempty"`
	// Transport selects the transport key in Options.Transports. The
	// built-ins: "local" (the default) re-execs this binary's `worker`
	// subcommand on the scheduler's machine; "remote" runs a worker
	// binary through the Cmd prefix, streaming manifest and envelope.
	Transport string `json:"transport,omitempty"`
	// Cmd is the remote transport's command prefix — everything in front
	// of the worker arguments, e.g.
	// ["ssh", "-oBatchMode=yes", "host9", "/usr/local/bin/fairbench"].
	Cmd []string `json:"cmd,omitempty"`
}

// LoadHosts reads a hosts.json pool definition: a JSON array of Host
// objects, e.g.
//
//	[
//	  {"name": "local", "slots": 4},
//	  {"name": "big", "slots": 16, "transport": "remote",
//	   "cmd": ["ssh", "-oBatchMode=yes", "big", "/usr/local/bin/fairbench"]}
//	]
func LoadHosts(path string) ([]Host, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	var hosts []Host
	if err := json.Unmarshal(data, &hosts); err != nil {
		return nil, fmt.Errorf("sched: decoding %s: %w", path, err)
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("sched: %s defines no hosts", path)
	}
	return hosts, nil
}

// Assignment is one unit of scheduled work: plan position Range of the
// manifest at ManifestPath (whose raw bytes travel in Manifest for
// transports that stream it). The transport must leave the shard's
// envelope at OutPath — a scheduler-chosen attempt-scoped path, so a
// zombie attempt can never clobber an accepted part.
type Assignment struct {
	ManifestPath string
	Manifest     []byte
	Range        int
	OutPath      string
}

// Transport places one assignment on a host. Implementations must honor
// ctx cancellation promptly — the scheduler cancels an assignment whose
// heartbeat lapses — and should call beat() whenever they observe
// evidence the host is alive. The exec-based transports beat while the
// worker process exists; a transport that stops beating for longer than
// Options.HeartbeatTimeout is declared dead and its range reassigned.
type Transport interface {
	Run(ctx context.Context, host Host, asn Assignment, beat func()) error
}

// heartbeatEvery is how often the exec transports refresh their
// process-liveness heartbeat. It bounds how small a useful
// Options.HeartbeatTimeout can be: timeouts should stay comfortably
// above this interval or live exec-backed workers will flap.
const heartbeatEvery = 100 * time.Millisecond

// LocalExec runs workers as subprocesses of the scheduler's own process,
// using the worker protocol's self-exec `fairbench worker` command.
// The heartbeat tracks process liveness: a SIGKILLed worker fails the
// attempt immediately, while a long-running but live computation never
// trips the deadline. (A worker that is alive yet wedged is indistinguishable
// from a slow one at this layer; hang detection belongs to transports
// that can observe progress, or to the host's own process limits.)
type LocalExec struct {
	// Spawn overrides how worker subprocesses are built (tests use the
	// re-exec helper pattern); nil uses dispatch.SelfExec.
	Spawn dispatch.SpawnFunc
}

func (t *LocalExec) Run(ctx context.Context, host Host, asn Assignment, beat func()) error {
	spawn := t.Spawn
	if spawn == nil {
		spawn = dispatch.SelfExec
	}
	cmd, err := spawn(asn.ManifestPath, asn.Range, asn.OutPath)
	if err != nil {
		return err
	}
	stderr := dispatch.NewBoundedBuffer(0)
	if cmd.Stderr == nil {
		cmd.Stderr = stderr
	}
	return runCmd(ctx, cmd, beat, stderr)
}

// RemoteExec runs the worker binary through an arbitrary command prefix —
// typically ssh — streaming the manifest over stdin and the envelope
// back over stdout, so scheduler and host need no shared filesystem.
// The command executed on the host is
//
//	<host.Cmd...> worker -manifest - -shard I -out -
//
// which the fairbench CLI implements via dispatch.WorkerIO. The
// returned envelope is decoded (and so validated) before the part file
// materializes locally; stray remote output fails the attempt instead
// of poisoning the part set.
//
// Like LocalExec, the heartbeat tracks the LOCAL command's liveness —
// the transport cannot see past a session that blocks without dying, so
// pair ssh with keepalives (e.g. -oServerAliveInterval=15
// -oServerAliveCountMax=3) so a partitioned session exits instead of
// blocking forever; the scheduler then fails the attempt and reassigns.
// The heartbeat deadline itself protects against transports that stop
// reporting (custom implementations, or a command runner that wedges
// before ever starting the process).
type RemoteExec struct {
	// Runner builds the command from the host and the worker arguments;
	// nil executes host.Cmd + args directly. Tests substitute a local
	// fake that behaves like an ssh session.
	Runner func(ctx context.Context, host Host, args []string) (*exec.Cmd, error)
}

func (t *RemoteExec) Run(ctx context.Context, host Host, asn Assignment, beat func()) error {
	args := []string{"worker", "-manifest", "-", "-shard", strconv.Itoa(asn.Range), "-out", "-"}
	var cmd *exec.Cmd
	var err error
	if t.Runner != nil {
		cmd, err = t.Runner(ctx, host, args)
	} else if len(host.Cmd) == 0 {
		err = fmt.Errorf("sched: host %s uses the remote transport but defines no cmd prefix", host.Name)
	} else {
		full := append(append([]string(nil), host.Cmd...), args...)
		cmd = exec.Command(full[0], full[1:]...)
	}
	if err != nil {
		return err
	}
	if cmd.Stdin == nil {
		cmd.Stdin = bytes.NewReader(asn.Manifest)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr := dispatch.NewBoundedBuffer(0)
	if cmd.Stderr == nil {
		cmd.Stderr = stderr
	}
	if err := runCmd(ctx, cmd, beat, stderr); err != nil {
		return err
	}
	if _, err := shard.Decode(stdout.Bytes()); err != nil {
		return fmt.Errorf("sched: host %s returned an invalid envelope: %w", host.Name, err)
	}
	return store.WriteFileAtomic(asn.OutPath, stdout.Bytes())
}

// runCmd starts cmd, heartbeats while the process is alive, kills it on
// ctx cancellation, and returns its terminal error with a (bounded)
// stderr tail — including the truncation marker when the worker wrote
// more than the capture budget.
func runCmd(ctx context.Context, cmd *exec.Cmd, beat func(), stderr *dispatch.BoundedBuffer) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	beat()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(heartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			if err != nil {
				return fmt.Errorf("worker: %w%s", err, dispatch.StderrTail(stderr.String()))
			}
			return nil
		case <-tick.C:
			beat() // the worker process still exists
		case <-ctx.Done():
			cmd.Process.Kill()
			<-done
			return ctx.Err()
		}
	}
}
