// Package gat reimplements JavaGAT (van Nieuwpoort et al., SC'07): a
// uniform API over heterogeneous middleware. "Instead of writing software
// for one specific middleware, applications can use the generic JavaGAT
// interface" — jobs and files are the core concepts, adapters implement them
// per middleware (local, ssh, pbs, sge here), and the broker
// automatically selects a working adapter for each resource, exactly the
// paper's usage.
//
// Executables are Go functions registered in a Catalog (the reproduction's
// substitute for installed binaries — the paper likewise assumes AMUSE is
// pre-installed on every resource).
package gat

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"jungle/internal/vnet"
)

// JobState is the lifecycle state of a job, mirroring JavaGAT's state model.
type JobState int32

// Job states.
const (
	Unsubmitted JobState = iota
	Scheduled            // accepted by middleware, waiting for nodes
	Running
	Stopped // finished normally
	Failed
	Canceled
)

func (s JobState) String() string {
	switch s {
	case Unsubmitted:
		return "unsubmitted"
	case Scheduled:
		return "scheduled"
	case Running:
		return "running"
	case Stopped:
		return "stopped"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	default:
		return fmt.Sprintf("JobState(%d)", int32(s))
	}
}

// Errors.
var (
	ErrUnknownExecutable = errors.New("gat: unknown executable")
	ErrNoAdapter         = errors.New("gat: no adapter could submit the job")
	ErrUnknownScheme     = errors.New("gat: unknown middleware scheme")
	ErrUnknownCluster    = errors.New("gat: unknown cluster")
	ErrTooManyNodes      = errors.New("gat: job requests more nodes than the cluster has")
	ErrCanceled          = errors.New("gat: job canceled")
)

// FilePair names a staging transfer.
type FilePair struct {
	SrcPath, DstPath string
}

// JobDescription is what the user submits (JavaGAT's JobDescription +
// SoftwareDescription collapsed).
type JobDescription struct {
	Executable string   // catalog name
	Args       []string // passed to the process
	Nodes      int      // node count (default 1)
	// StageIn copies files from the submit host to the job's primary node
	// before it starts; StageOut copies back after it stops.
	StageIn  []FilePair
	StageOut []FilePair
}

// Process is a registered executable: it runs on the allocated nodes with a
// Context. A non-nil error fails the job.
type Process func(ctx *Context) error

// Context is the runtime environment handed to a Process.
type Context struct {
	// Hosts are the allocated node host names; Hosts[0] is primary.
	Hosts []string
	// Args from the description.
	Args []string
	// Net is the virtual network (for opening listeners/dials).
	Net *vnet.Network
	// FS is the virtual filesystem.
	FS *FS
	// Cancel is closed when the job is canceled (the paper's "reservation
	// ends and the worker is killed by the scheduler").
	Cancel <-chan struct{}
	// StartedAt is the virtual time execution began, counted from the
	// submission (queue waits and staging included).
	StartedAt time.Duration
}

// Canceled reports whether cancellation was requested.
func (c *Context) Canceled() bool {
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// Catalog maps executable names to processes.
type Catalog struct {
	mu    sync.RWMutex
	procs map[string]Process
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{procs: make(map[string]Process)}
}

// Register adds (or replaces) an executable.
func (c *Catalog) Register(name string, p Process) {
	c.mu.Lock()
	c.procs[name] = p
	c.mu.Unlock()
}

// Lookup finds an executable.
func (c *Catalog) Lookup(name string) (Process, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.procs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownExecutable, name)
	}
	return p, nil
}

var jobIDs atomic.Int64

// Job is a submitted job. State transitions: Scheduled → Running →
// Stopped/Failed/Canceled.
type Job struct {
	ID      int64
	Desc    JobDescription
	Adapter string // adapter that accepted the job
	Target  string // resource it was submitted to

	mu    sync.Mutex
	state JobState
	err   error
	hosts []string

	cancel chan struct{}
	done   chan struct{}
}

func newJob(desc JobDescription, adapter, target string) *Job {
	return &Job{
		ID: jobIDs.Add(1), Desc: desc, Adapter: adapter, Target: target,
		state:  Scheduled,
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// State returns the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job error after it stopped (nil on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Hosts returns the allocated nodes (empty until Running).
func (j *Job) Hosts() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.hosts...)
}

// Wait blocks until the job stops and returns its error.
func (j *Job) Wait() error {
	<-j.done
	return j.Err()
}

// Done returns a channel closed when the job stops.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation. Processes observe it via Context.Cancel.
func (j *Job) Cancel() {
	j.mu.Lock()
	select {
	case <-j.cancel:
		j.mu.Unlock()
		return
	default:
	}
	close(j.cancel)
	j.mu.Unlock()
}

func (j *Job) setState(s JobState, err error) {
	j.mu.Lock()
	if j.state == Stopped || j.state == Failed || j.state == Canceled {
		j.mu.Unlock()
		return
	}
	j.state = s
	if err != nil && j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
	if s == Stopped || s == Failed || s == Canceled {
		close(j.done)
	}
}

func (j *Job) setRunning(hosts []string) {
	j.mu.Lock()
	j.hosts = append([]string(nil), hosts...)
	j.mu.Unlock()
	j.setState(Running, nil)
}
