package core

import (
	"lbtrust/internal/obs"
)

// SetObs attaches one observability bundle to the whole system: the
// distribution runtime, the durability store (when the system was opened
// durable), and every principal workspace — including workspaces created
// after the call, which AddPrincipalOn wires automatically. Each layer
// registers reads of its own Stats counters on the registry; those stay
// registered when a later call passes nil, which detaches the rest.
func (s *System) SetObs(o *obs.Obs) {
	s.mu.Lock()
	s.obs = o
	ps := make([]*Principal, 0, len(s.order))
	for _, name := range s.order {
		ps = append(ps, s.principals[name])
	}
	s.mu.Unlock()
	s.runtime.SetObs(o)
	if s.durable != nil {
		s.durable.st.SetObs(o)
	}
	// Workspace locks are taken outside s.mu: SetObs republishes the
	// workspace snapshot, and flush paths that hold workspace locks call
	// back into the system.
	for _, p := range ps {
		p.ws.SetObs(o)
	}
}

// SyncTraced is Sync carrying a request trace ID: every envelope the sync
// ships propagates the ID to peer nodes (see dist.SyncTraced).
func (s *System) SyncTraced(trace obs.TraceID) error {
	return s.runtime.SyncTraced(1000, trace)
}
