// The benchmark is a module of its own so the repository's `./...` builds,
// tests, linters and coverage never see it; the module path keeps the
// repository's prefix so it may import the repository's internal packages.
module github.com/bricklab/brick/benchmark

go 1.22

require github.com/bricklab/brick v0.0.0

replace github.com/bricklab/brick => ../
