package ipl

import (
	"bytes"
	"fmt"
	"sync"

	"jungle/internal/smartsockets"
	"jungle/internal/vnet"
)

// RegistryPort is the factory port the registry server listens on.
const RegistryPort = 18000

// Registry is the central pool server. The paper's daemon starts one; every
// worker proxy joins it. It tracks membership, detects deaths (broken
// connections) and runs elections.
type Registry struct {
	factory *smartsockets.Factory

	mu        sync.Mutex
	pools     map[string]*pool
	closed    bool
	listener  *smartsockets.Listener
	wg        sync.WaitGroup
	onFailure func(Identifier) // test/monitor hook, called on Died
}

type pool struct {
	nextID    int
	members   map[int]*memberConn
	elections map[string]Identifier
}

type memberConn struct {
	id   Identifier
	conn *smartsockets.VirtualConn
}

// NewRegistry starts a registry server on the given host, connecting
// through the hub at hubHost.
func NewRegistry(network *vnet.Network, host, hubHost string) (*Registry, error) {
	f, err := smartsockets.NewFactory(network, host, RegistryPort-1, hubHost)
	if err != nil {
		return nil, fmt.Errorf("ipl: registry: %w", err)
	}
	l, err := f.Listen(RegistryPort)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ipl: registry: %w", err)
	}
	r := &Registry{factory: f, pools: make(map[string]*pool), listener: l}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the registry's virtual address for members to join.
func (r *Registry) Addr() smartsockets.Address { return r.listener.Addr() }

// SetFailureHook installs a callback invoked when a member dies (tests only).
func (r *Registry) SetFailureHook(fn func(Identifier)) {
	r.mu.Lock()
	r.onFailure = fn
	r.mu.Unlock()
}

// Close shuts the registry down.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var conns []*smartsockets.VirtualConn
	for _, p := range r.pools {
		for _, m := range p.members {
			conns = append(conns, m.conn)
		}
	}
	r.mu.Unlock()
	r.listener.Close()
	for _, c := range conns {
		c.Close()
	}
	r.factory.Close()
	r.wg.Wait()
}

// Members returns the current membership of a pool, sorted by ID.
func (r *Registry) Members(poolName string) []Identifier {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pools[poolName]
	if p == nil {
		return nil
	}
	out := make([]Identifier, 0, len(p.members))
	for i := 0; i < p.nextID; i++ {
		if m, ok := p.members[i]; ok {
			out = append(out, m.id)
		}
	}
	return out
}

func (r *Registry) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.listener.Accept()
		if err != nil {
			return
		}
		conn.SetClass("ipl")
		r.wg.Add(1)
		go r.serve(conn)
	}
}

// serve handles one member's registry connection for its lifetime. A broken
// connection without a prior leave is a death.
func (r *Registry) serve(conn *smartsockets.VirtualConn) {
	defer r.wg.Done()
	msg, err := conn.Recv()
	if err != nil {
		conn.Close()
		return
	}
	m, err := decodeReg(msg.Data)
	if err != nil || m.Kind != rJoin {
		conn.Close()
		return
	}

	// Register the member and ack with the pool snapshot.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return
	}
	p := r.pools[m.Member.Pool]
	if p == nil {
		p = &pool{members: make(map[int]*memberConn), elections: make(map[string]Identifier)}
		r.pools[m.Member.Pool] = p
	}
	id := m.Member
	id.ID = p.nextID
	p.nextID++
	mc := &memberConn{id: id, conn: conn}
	p.members[id.ID] = mc
	snapshot := make([]Identifier, 0, len(p.members))
	for i := 0; i < p.nextID; i++ {
		if mm, ok := p.members[i]; ok {
			snapshot = append(snapshot, mm.id)
		}
	}
	// The ack is queued while the lock is still held: once it is released
	// a concurrent broadcast can list this member, and an event overtaking
	// the ack on the new conn would fail the joiner's Create. Send only
	// enqueues, so nothing blocks under the lock. Who hears of the join is
	// settled under the same lock: the members of this moment, not whoever
	// else has joined by the time this goroutine gets to tell them.
	err = conn.Send(encodeReg(&regMsg{Kind: rJoinAck, Member: id, Members: snapshot}), msg.Arrival)
	others := p.conns(id.ID)
	r.mu.Unlock()
	if err != nil {
		r.drop(id, true)
		return
	}
	sendAll(others, &regMsg{Kind: rEvent, Event: byte(Joined), Member: id})

	left := false
	for {
		msg, err := conn.Recv()
		if err != nil {
			break
		}
		req, err := decodeReg(msg.Data)
		if err != nil {
			break
		}
		switch req.Kind {
		case rLeave:
			left = true
			conn.Send(encodeReg(&regMsg{Kind: rLeave, OK: true}), msg.Arrival)
		case rElect:
			r.mu.Lock()
			winner, decided := p.elections[req.Election]
			if !decided {
				winner = id
				p.elections[req.Election] = winner
			}
			r.mu.Unlock()
			res := &regMsg{Kind: rElectRes, Election: req.Election, Winner: winner}
			conn.Send(encodeReg(res), msg.Arrival)
			if !decided {
				r.broadcast(id.Pool, &regMsg{
					Kind: rEvent, Event: byte(Elected), Member: winner, Election: req.Election,
				}, -1)
			}
		}
		if left {
			break
		}
	}
	conn.Close()
	r.drop(id, !left)
}

// drop removes a member and broadcasts left/died.
func (r *Registry) drop(id Identifier, died bool) {
	r.mu.Lock()
	p := r.pools[id.Pool]
	var hook func(Identifier)
	if p != nil {
		delete(p.members, id.ID)
	}
	if died {
		hook = r.onFailure
	}
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return
	}
	kind := Left
	if died {
		kind = Died
	}
	// The hook runs first: whoever sees the Died event may rely on it.
	if died && hook != nil {
		hook(id)
	}
	r.broadcast(id.Pool, &regMsg{Kind: rEvent, Event: byte(kind), Member: id}, id.ID)
}

// broadcast pushes an event message to every member of a pool except skipID.
func (r *Registry) broadcast(poolName string, m *regMsg, skipID int) {
	r.mu.Lock()
	var conns []*smartsockets.VirtualConn
	if p := r.pools[poolName]; p != nil {
		conns = p.conns(skipID)
	}
	r.mu.Unlock()
	sendAll(conns, m)
}

// conns returns the connections of every member except skipID; the caller
// holds the registry lock.
func (p *pool) conns(skipID int) []*smartsockets.VirtualConn {
	var conns []*smartsockets.VirtualConn
	for mid, mc := range p.members {
		if mid != skipID {
			conns = append(conns, mc.conn)
		}
	}
	return conns
}

// sendAll pushes one event message to each connection.
func sendAll(conns []*smartsockets.VirtualConn, m *regMsg) {
	data := encodeReg(m)
	for _, c := range conns {
		// Send takes its slice; every member gets a clone of the one encoding.
		c.Send(bytes.Clone(data), 0) // control-plane events: virtual cost negligible
	}
}
