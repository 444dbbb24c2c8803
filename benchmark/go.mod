module github.com/v3storage/v3/benchmark

go 1.22

require github.com/v3storage/v3 v3.0.0

replace github.com/v3storage/v3 => ../
