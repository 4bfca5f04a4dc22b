module iolap/bench

go 1.22

require iolap v0.0.0

replace iolap => ../
