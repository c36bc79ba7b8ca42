module hsmcc/benchmark

go 1.24

require hsmcc v0.0.0

replace hsmcc => ../
