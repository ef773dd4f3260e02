module acic/benchmark

go 1.22

require acic v0.0.0

replace acic => ../
