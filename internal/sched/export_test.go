package sched

// SetWeight sets a tenant's fair-queueing weight (default 1). A weight
// of 2 halves the virtual cost of the tenant's jobs, doubling its
// admission share under contention. Weights <= 0 reset to 1.
func (s *Scheduler) SetWeight(tenant string, w float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if w <= 0 {
		delete(s.weights, tenant)
		return
	}
	s.weights[tenant] = w
}
