package switchd

import (
	"sync"

	"repro/internal/switchd/api"
	"repro/internal/wdm"
)

// session is the controller's record of one live multicast connection.
// It is guarded by its shard's mutex.
type session struct {
	ID       uint64
	Fabric   int // replica index
	ConnID   int // fabric-level connection id
	Conn     wdm.Connection
	Branches int // successful AddBranch count
	// Migrations counts how many times the failure plane moved this
	// session's route off a failed middle module.
	Migrations int
}

func (s *session) info() api.SessionInfo {
	return api.SessionInfo{
		ID:         s.ID,
		Fabric:     s.Fabric,
		Conn:       wdm.FormatConnection(s.Conn),
		Fanout:     s.Conn.Fanout(),
		Branches:   s.Branches,
		Migrations: s.Migrations,
	}
}

// sessionShard is one lock domain of the session table.
type sessionShard struct {
	mu sync.Mutex
	m  map[uint64]*session
}

// sessionTable shards sessions by id so bookkeeping for independent
// sessions never contends on one lock. The shard count is fixed at
// construction; shardFor is a pure hash, so a session is always found in
// the shard that stored it.
type sessionTable struct {
	shards []*sessionShard
}

func newSessionTable(shards int) *sessionTable {
	t := &sessionTable{shards: make([]*sessionShard, shards)}
	for i := range t.shards {
		t.shards[i] = &sessionShard{m: make(map[uint64]*session)}
	}
	return t
}

// shardFor returns the shard owning session id. Session ids are dense
// (an atomic counter), so the modulus spreads them uniformly.
func (t *sessionTable) shardFor(id uint64) *sessionShard {
	return t.shards[id%uint64(len(t.shards))]
}

func (t *sessionTable) put(s *session) {
	sh := t.shardFor(s.ID)
	sh.mu.Lock()
	sh.m[s.ID] = s
	sh.mu.Unlock()
}

// len counts live sessions across all shards.
func (t *sessionTable) len() int {
	total := 0
	for _, sh := range t.shards {
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}
