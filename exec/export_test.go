package exec

// HotRows is the length of one input's hot columns, live and tombstoned
// rows alike. The external alloc guards count compactions by watching it
// shrink.
func (m *MJoin) HotRows(input int) int { return len(m.states[input].hot.ids) }

func (wj *WindowedMJoin) HotRows(input int) int { return wj.m.HotRows(input) }
