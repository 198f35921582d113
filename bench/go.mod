module bxsoap/bench

go 1.22

require bxsoap v0.0.0

replace bxsoap => ../
