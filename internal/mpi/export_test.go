package mpi

// SetTurnSeed makes every World created until the next call take turns
// in the order seed draws; 0 restores rank order. See turnSeed.
func SetTurnSeed(seed uint64) { turnSeed = seed }
