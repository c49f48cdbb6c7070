package gat

import (
	"sync"
	"time"
)

// clusterSched is a FIFO batch scheduler over a cluster's nodes — the
// queueing behaviour of PBS/SGE that the paper's resources (DAS-4, LGM) sit
// behind ("a grid resource will have to be reserved", "long queues ... may
// lead users to opportunistically choose whatever machine is available").
type clusterSched struct {
	mu      sync.Mutex
	nodes   []string
	busy    map[string]bool
	waiters []*waiter
}

type waiter struct {
	n  int
	ch chan []string
}

func newClusterSched(nodes []string) *clusterSched {
	return &clusterSched{nodes: append([]string(nil), nodes...), busy: make(map[string]bool)}
}

// size returns the total node count.
func (s *clusterSched) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.nodes)
}

// freeNodes returns currently idle node names.
func (s *clusterSched) freeLocked() []string {
	var out []string
	for _, n := range s.nodes {
		if !s.busy[n] {
			out = append(out, n)
		}
	}
	return out
}

// enqueue places a request for n nodes in the FIFO queue as the job is
// submitted, so jobs are placed in submission order whatever goroutine
// waits for them: it grants free nodes at once when no job queues ahead
// (no backfill — a big job at the head blocks smaller later jobs, the
// conservative batch model), and otherwise queues a waiter for them. n
// must fit the cluster.
func (s *clusterSched) enqueue(n int) ([]string, *waiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.waiters) == 0 {
		if free := s.freeLocked(); len(free) >= n {
			got := free[:n]
			for _, h := range got {
				s.busy[h] = true
			}
			return got, nil
		}
	}
	w := &waiter{n: n, ch: make(chan []string, 1)}
	s.waiters = append(s.waiters, w)
	return nil, w
}

// wait blocks until w's nodes are granted or cancel fires.
func (s *clusterSched) wait(w *waiter, cancel <-chan struct{}) ([]string, error) {
	select {
	case hosts := <-w.ch:
		return hosts, nil
	case <-cancel:
		s.mu.Lock()
		for i, x := range s.waiters {
			if x == w {
				s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		// The grant may have raced with cancellation; release it.
		select {
		case hosts := <-w.ch:
			s.release(hosts)
		default:
		}
		return nil, ErrCanceled
	}
}

// release returns nodes to the pool and serves queued waiters FIFO.
func (s *clusterSched) release(hosts []string) {
	s.mu.Lock()
	for _, h := range hosts {
		delete(s.busy, h)
	}
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		free := s.freeLocked()
		if len(free) < w.n {
			break
		}
		got := free[:w.n]
		for _, h := range got {
			s.busy[h] = true
		}
		s.waiters = s.waiters[1:]
		w.ch <- got
	}
	s.mu.Unlock()
}

// queueDelay is the virtual submission overhead per middleware: batch
// systems add scheduling latency that interactive SSH does not.
func queueDelay(scheme string) time.Duration {
	switch scheme {
	case "pbs", "sge":
		return 2 * time.Second
	case "ssh":
		return 200 * time.Millisecond
	default:
		return 10 * time.Millisecond
	}
}
