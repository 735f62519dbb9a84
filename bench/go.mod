module punctsafe/bench

go 1.22

require punctsafe v0.0.0

replace punctsafe => ../
