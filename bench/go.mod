module ecocharge/bench

go 1.22

require ecocharge v0.0.0

replace ecocharge => ../
