// The benchmark is a module of its own so that the repository's build,
// vet and test commands (./... from the root) never include it, while the
// "itdos/" path prefix still lets it import the product's internal
// packages through the replace below.
module itdos/benchmark

go 1.22

require itdos v0.0.0

replace itdos => ../
