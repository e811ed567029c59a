module urel/benchmark

go 1.21

require urel v0.0.0

replace urel => ../
