package exec

// Rows is the length of one input's columns, live and tombstoned rows
// alike. The external alloc guards count compactions by watching it
// shrink.
func (m *MJoin) Rows(input int) int { return len(m.states[input].ids) }

func (wj *WindowedMJoin) Rows(input int) int { return wj.m.Rows(input) }
