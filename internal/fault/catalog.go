package fault

// The failpoint catalog: every failpoint name in the repository,
// declared exactly once. The package owning the call site registers
// the point with New(fault.Point...) and arming sites pass the same
// constant to Arm. internal/journal's TestFaultCatalogRegistered
// requires the registered names to equal this catalog, so a typo or
// an uncataloged point fails the tests. docs/resilience.md documents
// what each point interrupts.
const (
	// Journal open path (journal.Open).
	PointJournalOpenMkdir    = "journal.open.mkdir"
	PointJournalOpenSnapshot = "journal.open.snapshot"
	PointJournalOpenWAL      = "journal.open.wal"
	// Journal append path (Log.Append); the write point tears the
	// frame — half the bytes land on disk before the error.
	PointJournalAppendWrite = "journal.append.write"
	PointJournalAppendSync  = "journal.append.sync"
	// WAL truncation (append rollback and the checkpoint's log cut);
	// firing it during an append rollback poisons the log.
	PointJournalWALTruncate = "journal.wal.truncate"
	// Checkpoint path (Log.Checkpoint): tmp-file creation, write,
	// fsync, and the atomic rename.
	PointJournalCheckpointTmp    = "journal.checkpoint.tmp"
	PointJournalCheckpointWrite  = "journal.checkpoint.write"
	PointJournalCheckpointSync   = "journal.checkpoint.sync"
	PointJournalCheckpointRename = "journal.checkpoint.rename"
)
