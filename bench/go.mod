module github.com/verified-os/vnros/bench

go 1.22

require github.com/verified-os/vnros v0.0.0

replace github.com/verified-os/vnros => ../
