module azurebench/bench

go 1.22

require azurebench v0.0.0

replace azurebench => ../
