package core

// The names in this file exist only because the benchmark module
// (bench/) still calls them. They are deleted with ROADMAP item 1b,
// when bench/ stops importing internal packages.

// Guarded is Queues, which carries its own lock.
type Guarded[T any] = Queues[T]

// GuardedFlowTable is FlowTable, which carries its own lock.
type GuardedFlowTable = FlowTable

// NewGuarded is NewQueues.
func NewGuarded[T any](cfg Config) *Queues[T] { return NewQueues[T](cfg) }

// NewGuardedFlowTable is NewFlowTable.
func NewGuardedFlowTable(nGroups, cores int) *FlowTable { return NewFlowTable(nGroups, cores) }

// BalanceTable is Balance(t, q, eligible, nil).
func (q *Queues[T]) BalanceTable(t *FlowTable, eligible func(core int) bool) []Migration {
	return Balance(t, q, eligible, nil)
}
