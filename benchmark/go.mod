module sdm/benchmark

go 1.24

require sdm v0.0.0

replace sdm => ../
