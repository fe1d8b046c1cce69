package sim

// Pool models a k-server resource with deterministic service times and FIFO
// admission: page-table walkers, cache ports, DRAM banks. Acquire returns the
// time at which service can begin; the caller schedules its own completion
// event at start+service.
//
// Pool is intentionally not an event source itself: components that need to
// inspect or reorder their queue (the IOMMU PW-queue revisit mechanism, for
// example) keep an explicit queue and use Pool only for the busy/free
// bookkeeping of the servers.
type Pool struct {
	free []VTime // next-free time of each server
}

// NewPool creates a pool of k servers, all free at time zero.
func NewPool(k int) *Pool {
	if k <= 0 {
		panic("sim: pool must have at least one server")
	}
	return &Pool{free: make([]VTime, k)}
}

// Acquire books the earliest-available server for a job arriving at `now`
// requiring `service` cycles, and returns the start time of service
// (>= now). The server is marked busy until start+service.
func (p *Pool) Acquire(now VTime, service VTime) (start VTime) {
	best := 0
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[best] {
			best = i
		}
	}
	start = now
	if p.free[best] > start {
		start = p.free[best]
	}
	p.free[best] = start + service
	return start
}

// Busy reports how many servers are busy at time now.
func (p *Pool) Busy(now VTime) int {
	n := 0
	for _, t := range p.free {
		if t > now {
			n++
		}
	}
	return n
}

// Line models a single serialised resource with a rate, such as a network
// link: each job occupies the line for size/rate cycles, jobs are served in
// arrival order, and the caller learns when its occupancy ends.
type Line struct {
	nextFree VTime
	// BusyCycles accumulates total occupied cycles, for utilisation stats.
	BusyCycles VTime
}

// Occupy books the line for a job arriving at now that occupies it for
// hold cycles. It returns the time at which the job's occupancy starts and
// the time it ends.
func (l *Line) Occupy(now VTime, hold VTime) (start, end VTime) {
	start = now
	if l.nextFree > start {
		start = l.nextFree
	}
	end = start + hold
	l.nextFree = end
	l.BusyCycles += hold
	return start, end
}
