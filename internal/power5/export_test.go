package power5

// DropChipPools empties every pool of released chips, so that the next
// New builds its chip afresh.
func DropChipPools() { chipPools.Clear() }
