//! Transactions: snapshot-isolation MVCC and a simulated write-ahead log.
//!
//! The paper's OLTP chapter (§5.5) profiles 10-user TPC-C — concurrent
//! writers with real concurrency control. This module gives the engine that
//! machinery while keeping every cost observable on the simulated processor:
//!
//! * **Snapshot isolation.** [`Database::begin`] pins a transaction to the
//!   newest commit timestamp. Reads inside the transaction see exactly the
//!   versions committed at or before that snapshot (plus the transaction's
//!   own staged writes); writes are staged privately and installed at
//!   commit. Write-write conflicts are resolved *first committer wins*:
//!   [`Database::commit`] validates that no row in the write set was
//!   committed by another transaction after the snapshot, and aborts the
//!   loser with [`DbError::TxnConflict`] otherwise.
//! * **Version chains.** The heap always holds the newest committed version
//!   of each row (so autocommit reads — snapshot = now — run the unchanged
//!   fast path). When a commit overwrites a row, the superseded full-row
//!   image is pushed onto a per-row chain tagged with the timestamp of the
//!   commit that *produced* it. A snapshot reader whose snapshot predates
//!   the newest committed write walks the chain newest-to-oldest for the
//!   first image with `ts <= snap`, charging the dependency-bound
//!   `version_chase` block plus a cold simulated touch per hop — the
//!   `T_DEP`/`T_L2D` face of multiversioning.
//! * **Write-ahead log.** Every mutation appends a [`WalRecord`] *before*
//!   the heap or index bytes change; a commit is durable exactly when its
//!   [`WalRecord::Commit`] record is in the log. Each append charges the
//!   store-heavy `wal_append` block plus a store burst in a dedicated
//!   simulated log region. [`Database::replay_wal`] rebuilds a
//!   freshly-loaded database to the bit-identical post-commit state
//!   (verified by [`Database::state_digest`]) after a simulated crash at
//!   any commit boundary.
//!
//! One code path logs, applies and seals every transaction: `install`.
//! [`Database::commit`] reaches it after validating an explicit transaction;
//! the autocommit mutations ([`Database::update_add`] /
//! [`Database::insert_row`]) reach it as implicit single-statement
//! transactions under a fresh id. Overflow and torn-write failures surface
//! *before* any byte changes, every successful mutation is WAL-logged and
//! versioned, and every failure after the id is assigned — explicit or
//! implicit — closes the transaction with one [`WalRecord::Abort`] and
//! counts in [`TxnStats::aborted`].

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use wdtg_sim::{segment, MemDep};

use crate::db::{fetch_record, store_record_fields, Database};
use crate::error::{DbError, DbResult};
use crate::exec::indexscan::descend_to_leaf;
use crate::fault::FaultSite;
use crate::heap::{Rid, HDR_NRECS, PAGE_SIZE};
use crate::index::btree::NODE_SIZE;
use crate::query::{Query, QueryResult};

/// Simulated address of the version-chain storage region (within the MISC
/// segment, past the buffer-pool tables and session working memory).
const VERSION_REGION: u64 = segment::MISC + 0x0A00_0000;
/// Bytes of simulated version storage before the write cursor wraps.
const VERSION_REGION_BYTES: u64 = 32 << 20;
/// Simulated address of the log buffer region.
const WAL_REGION: u64 = segment::MISC + 0x0C00_0000;
/// Bytes of simulated log buffer before the append cursor wraps.
const WAL_REGION_BYTES: u64 = 64 << 20;

/// Handle to an open transaction on one [`Database`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// One logged mutation, keyed by table name so a log replays into any
/// database loaded with the same catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A single-field overwrite (the redo image carries both old and new
    /// values; recovery applies `new`, tests use `old` to check pre-images).
    Update {
        /// Table name.
        table: String,
        /// Packed record id ([`Rid::pack`]).
        rid: u64,
        /// Column ordinal.
        col: usize,
        /// Value before the transaction.
        old: i32,
        /// Value the commit installs.
        new: i32,
    },
    /// A full-row insert.
    Insert {
        /// Table name.
        table: String,
        /// The row.
        values: Vec<i32>,
    },
}

/// One write-ahead-log record. Ops are appended at commit time *before*
/// their heap/index bytes change; the commit record seals them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A mutation staged by transaction `txn`.
    Op {
        /// Owning transaction.
        txn: u64,
        /// The mutation.
        op: WalOp,
    },
    /// Transaction `txn` committed at timestamp `ts`; its ops are durable.
    Commit {
        /// Committing transaction.
        txn: u64,
        /// Commit timestamp assigned.
        ts: u64,
    },
    /// Transaction `txn` aborted; its ops (if any) must not be replayed.
    Abort {
        /// Aborting transaction.
        txn: u64,
    },
}

/// The simulated write-ahead log: an append-only record list plus the
/// simulated-address cursor its appends are charged at.
#[derive(Debug, Default, Clone)]
pub struct Wal {
    records: Vec<WalRecord>,
    cursor: u64,
}

impl Wal {
    /// Every record appended so far, in log order.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Number of commit records in the log — the number of distinct crash
    /// points [`Database::replay_wal`] can recover to.
    pub fn commit_count(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r, WalRecord::Commit { .. }))
            .count()
    }
}

/// A superseded row image on a version chain.
#[derive(Debug, Clone)]
struct Version {
    /// Timestamp of the commit that *produced* this image (0 = bulk load).
    ts: u64,
    /// Simulated address the image occupies (chased on snapshot reads).
    sim_addr: u64,
    /// The full row as of `ts`.
    row: Vec<i32>,
}

/// Staged single-field writes: `(table, packed rid) -> col -> new value`.
/// BTreeMaps keep install-time iteration deterministic: ascending rid, which
/// for the rids one key matches is also their index order.
pub(crate) type WriteSet = BTreeMap<(usize, u64), BTreeMap<usize, i32>>;

/// One open transaction's private state.
#[derive(Debug)]
struct ActiveTxn {
    /// Snapshot timestamp: the transaction sees commits `<= snap`.
    snap: u64,
    /// Staged single-field writes.
    writes: WriteSet,
    /// Staged inserts, in statement order.
    inserts: Vec<(usize, Vec<i32>)>,
}

/// Lifetime counters for the transaction machinery.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions begun via [`Database::begin`].
    pub begun: u64,
    /// Commits (explicit and implicit autocommit) that installed writes or
    /// were read-only successes.
    pub committed: u64,
    /// Aborts: explicit, conflict-forced, or a failed install — including a
    /// failed autocommit mutation, whose implicit transaction aborts like a
    /// failed [`Database::commit`].
    pub aborted: u64,
    /// First-committer-wins write conflicts detected at commit.
    pub conflicts: u64,
}

/// Per-database MVCC + WAL state. Lives on [`Database`]; every mutation
/// (explicit transaction or autocommit) is logged, applied and sealed
/// through one `install` path.
#[derive(Debug, Default)]
pub struct TxnState {
    /// Next transaction id to hand out.
    next_txn: u64,
    /// Newest commit timestamp assigned.
    last_commit_ts: u64,
    /// Open transactions by id.
    active: BTreeMap<u64, ActiveTxn>,
    /// Per-row timestamp of the commit whose image the heap currently holds
    /// (absent = 0 = bulk load).
    last_writer: HashMap<(usize, u64), u64>,
    /// Per-row chains of superseded images, oldest first.
    chains: HashMap<(usize, u64), Vec<Version>>,
    /// Rows created by a *committed transaction* (vs bulk load), with the
    /// creating commit's timestamp — snapshots older than it skip the row.
    created: HashMap<(usize, u64), u64>,
    /// The write-ahead log.
    wal: Wal,
    /// Write cursor into the simulated version region.
    version_cursor: u64,
    /// Counters.
    stats: TxnStats,
}

/// Reserves `bytes` at `*cursor` in a simulated region of `region_bytes`:
/// wraps to offset 0 when the reservation would run past the region's end,
/// then advances the cursor to the next 64-byte boundary. Returns the
/// reserved offset.
fn reserve(cursor: &mut u64, bytes: u32, region_bytes: u64) -> u64 {
    let wraps = *cursor + bytes as u64 > region_bytes;
    let off = if wraps { 0 } else { *cursor };
    *cursor = (off + bytes as u64 + 63) & !63;
    off
}

/// The refusal an aggregate gets inside a transaction: no aggregate path
/// reads a snapshot.
pub(crate) fn aggregate_in_txn() -> DbError {
    DbError::PlanError("aggregate queries are not snapshot-aware; run them in autocommit".into())
}

/// Estimated on-log bytes of one record (what the simulated append stores).
fn wal_record_bytes(rec: &WalRecord) -> u32 {
    match rec {
        WalRecord::Op { op, .. } => match op {
            WalOp::Update { .. } => 40,
            WalOp::Insert { values, .. } => 32 + 4 * values.len() as u32,
        },
        WalRecord::Commit { .. } | WalRecord::Abort { .. } => 16,
    }
}

impl Database {
    /// Opens a transaction pinned to a snapshot of everything committed so
    /// far. Charges the begin/commit bookkeeping path.
    pub fn begin(&mut self) -> TxnId {
        let blocks = Arc::clone(&self.profile.blocks);
        self.ctx.exec(&blocks.txn_begin_commit);
        let id = self.fresh_txn_id();
        self.txn.active.insert(
            id,
            ActiveTxn {
                snap: self.txn.last_commit_ts,
                writes: BTreeMap::new(),
                inserts: Vec::new(),
            },
        );
        self.txn.stats.begun += 1;
        TxnId(id)
    }

    /// Commits a transaction: validates the write set (first committer
    /// wins), then installs it — every op appended to the WAL *before* any
    /// heap/index byte changes, the writes applied (superseded images pushed
    /// onto version chains), a commit record sealing them. Returns the
    /// commit timestamp.
    ///
    /// On a write-write conflict the transaction is aborted (an abort
    /// record is logged, staged writes are discarded — nothing was applied)
    /// and [`DbError::TxnConflict`] names the first conflicting row; the
    /// caller may retry on a fresh snapshot. An install that fails (arena
    /// headroom, an injected fault) also aborts with an abort record and
    /// leaves the heap as it was.
    pub fn commit(&mut self, txn: TxnId) -> DbResult<u64> {
        let at = self
            .txn
            .active
            .remove(&txn.0)
            .ok_or(DbError::TxnUnknown { txn: txn.0 })?;
        let blocks = Arc::clone(&self.profile.blocks);
        self.ctx.exec(&blocks.txn_commit);
        if at.writes.is_empty() && at.inserts.is_empty() {
            // Read-only: nothing to validate, log or install.
            self.txn.stats.committed += 1;
            return Ok(self.txn.last_commit_ts);
        }
        // First committer wins: any row in the write set committed past our
        // snapshot by someone else aborts us.
        for &(ti, rid) in at.writes.keys() {
            let lw = self.txn.last_writer.get(&(ti, rid)).copied().unwrap_or(0);
            if lw > at.snap {
                self.txn.stats.conflicts += 1;
                self.txn.stats.aborted += 1;
                self.wal_append(WalRecord::Abort { txn: txn.0 });
                return Err(DbError::TxnConflict {
                    table: self.tables[ti].name.clone(),
                    rid,
                });
            }
        }
        self.install(txn.0, &at.writes, &at.inserts)
    }

    /// Aborts a transaction: staged writes are discarded (nothing was ever
    /// applied, so the pre-image is intact by construction) and an abort
    /// record is logged.
    pub fn abort(&mut self, txn: TxnId) -> DbResult<()> {
        self.txn
            .active
            .remove(&txn.0)
            .ok_or(DbError::TxnUnknown { txn: txn.0 })?;
        let blocks = Arc::clone(&self.profile.blocks);
        self.ctx.exec(&blocks.txn_commit);
        self.wal_append(WalRecord::Abort { txn: txn.0 });
        self.txn.stats.aborted += 1;
        Ok(())
    }

    /// Runs one statement inside an open transaction: point reads see the
    /// transaction's snapshot (walking version chains where the heap has
    /// moved past it) overlaid with its own staged writes; mutations stage
    /// privately until [`Database::commit`]. Aggregate queries have no
    /// snapshot-aware path and are rejected with [`DbError::PlanError`] —
    /// run them in autocommit.
    pub fn txn_run(&mut self, txn: TxnId, q: &Query) -> DbResult<QueryResult> {
        self.gated(|db| match q {
            Query::PointSelect {
                table,
                key_col,
                key,
                read_col,
            } => db.txn_point_select(txn, table, key_col, *key, read_col),
            Query::UpdateAdd {
                table,
                key_col,
                key,
                set_col,
                delta,
            } => db.txn_update_add(txn, table, key_col, *key, set_col, *delta),
            Query::InsertRow { table, values } => db.txn_insert_row(txn, table, values.clone()),
            Query::SelectAgg { .. } | Query::JoinAgg { .. } => Err(aggregate_in_txn()),
        })
    }

    /// The write-ahead log (all records since the database was created).
    pub fn wal(&self) -> &Wal {
        &self.txn.wal
    }

    /// Transaction machinery counters.
    pub fn txn_stats(&self) -> TxnStats {
        self.txn.stats
    }

    /// FNV-1a digest over every table's name, record count and raw heap
    /// page bytes — two databases with equal digests hold bit-identical
    /// user data. The recovery tests compare a crashed-and-replayed
    /// database's digest against the original's at the same commit point.
    pub fn state_digest(&self) -> u64 {
        fn eat(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in &self.tables {
            eat(&mut h, t.name.as_bytes());
            eat(&mut h, &t.heap.n_records.to_le_bytes());
            for page_no in 0..t.heap.n_pages() {
                let addr = t.heap.page_addr(page_no).expect("page in range");
                eat(&mut h, self.ctx.heap.read_bytes(addr, PAGE_SIZE as u32));
            }
        }
        h
    }

    /// Crash recovery: replays the first `commits` committed transactions
    /// of `records` into this database (which must be freshly loaded to the
    /// same pre-transaction state the log was recorded against). Ops are
    /// buffered per transaction and applied only when the matching commit
    /// record is reached — uncommitted or aborted tails are discarded, as a
    /// real redo pass would. Uninstrumented, like the paper's
    /// pre-measurement loads. Returns the number of commits applied.
    pub fn replay_wal(&mut self, records: &[WalRecord], commits: usize) -> DbResult<usize> {
        let was = self.ctx.instrument;
        self.ctx.instrument = false;
        let result = self.replay_wal_inner(records, commits);
        self.ctx.instrument = was;
        result
    }

    fn replay_wal_inner(&mut self, records: &[WalRecord], commits: usize) -> DbResult<usize> {
        let mut pending: HashMap<u64, Vec<WalOp>> = HashMap::new();
        let mut applied = 0usize;
        for rec in records {
            match rec {
                WalRecord::Op { txn, op } => {
                    pending.entry(*txn).or_default().push(op.clone());
                }
                WalRecord::Abort { txn } => {
                    pending.remove(txn);
                }
                WalRecord::Commit { txn, ts } => {
                    if applied == commits {
                        break;
                    }
                    for op in pending.remove(txn).unwrap_or_default() {
                        self.replay_op(&op)?;
                    }
                    self.txn.last_commit_ts = self.txn.last_commit_ts.max(*ts);
                    applied += 1;
                }
            }
        }
        Ok(applied)
    }

    fn replay_op(&mut self, op: &WalOp) -> DbResult<()> {
        match op {
            WalOp::Update {
                table,
                rid,
                col,
                new,
                ..
            } => {
                let ti = self.table_idx(table)?;
                let rid = Rid::unpack(*rid);
                let page = self.tables[ti].heap.page_addr(rid.page)?;
                let addr = self.tables[ti].heap.field_addr_at(page, rid.slot, *col);
                self.ctx.heap.write_i32(addr, *new);
            }
            WalOp::Insert { table, values } => {
                // The bulk-load path performs the identical byte writes the
                // committed insert did (heap append, page registration,
                // index maintenance), just uninstrumented.
                let table = table.clone();
                self.load_rows(&table, std::iter::once(values.clone()))?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Snapshot reads
    // ------------------------------------------------------------------

    /// The prologue both in-transaction point operations share: resolves
    /// the transaction's snapshot, the index on `table.key_col` and the
    /// ordinal of `table.col`, then walks the index collecting the rid of
    /// every entry equal to `key` *before* any record is fetched (the
    /// autocommit twins in [`crate::db`] interleave walk and fetch — a
    /// different access stream, so the two pairs must not share this).
    /// Returns the table, key-column and `col` ordinals, the snapshot
    /// timestamp and the packed rids in index order.
    fn txn_locate(
        &mut self,
        txn: TxnId,
        table: &str,
        key_col: &str,
        key: i32,
        col: &str,
    ) -> DbResult<(usize, usize, usize, u64, Vec<u64>)> {
        let ti = self.table_idx(table)?;
        let kc = self.tables[ti].schema.col(key_col)?;
        let col = self.tables[ti].schema.col(col)?;
        let snap = self
            .txn
            .active
            .get(&txn.0)
            .ok_or(DbError::TxnUnknown { txn: txn.0 })?
            .snap;
        let ix = self
            .index_on(ti, kc)
            .ok_or_else(|| DbError::IndexNotFound(format!("{table}.{key_col}")))?;
        let btree = ix.btree.clone();
        let blocks = Arc::clone(&self.profile.blocks);
        let mut env = self.env();
        let mut cursor = descend_to_leaf(&mut env, &btree, key, &blocks);
        let mut rids = Vec::new();
        while let Some((k, rid)) = cursor.next_entry(&mut env, &blocks) {
            if k != key {
                break;
            }
            rids.push(rid);
        }
        Ok((ti, kc, col, snap, rids))
    }

    fn txn_point_select(
        &mut self,
        txn: TxnId,
        table: &str,
        key_col: &str,
        key: i32,
        read_col: &str,
    ) -> DbResult<QueryResult> {
        let (ti, kc, rc, snap, rids) = self.txn_locate(txn, table, key_col, key, read_col)?;
        let blocks = Arc::clone(&self.profile.blocks);

        let mut value = 0f64;
        let mut rows = 0u64;
        for rid in rids {
            if let Some(v) = self.visible_field(txn, ti, rid, rc, snap, &blocks)? {
                if rows == 0 {
                    value = v as f64;
                }
                rows += 1;
            }
        }
        // The transaction's own staged inserts are visible to it.
        let staged: Vec<i32> = self.txn.active[&txn.0]
            .inserts
            .iter()
            .filter(|(t, row)| *t == ti && row[kc] == key)
            .map(|(_, row)| row[rc])
            .collect();
        for v in staged {
            if rows == 0 {
                value = v as f64;
            }
            rows += 1;
        }
        Ok(QueryResult { value, rows })
    }

    /// The value of `(ti, rid).col` visible at `snap`, with the
    /// transaction's own staged writes overlaid. `None` = the row was
    /// created by a commit after the snapshot (invisible).
    fn visible_field(
        &mut self,
        txn: TxnId,
        ti: usize,
        rid_packed: u64,
        col: usize,
        snap: u64,
        blocks: &crate::profiles::EngineBlocks,
    ) -> DbResult<Option<i32>> {
        if let Some(at) = self.txn.active.get(&txn.0) {
            if let Some(v) = at.writes.get(&(ti, rid_packed)).and_then(|c| c.get(&col)) {
                return Ok(Some(*v));
            }
        }
        if self
            .txn
            .created
            .get(&(ti, rid_packed))
            .copied()
            .unwrap_or(0)
            > snap
        {
            return Ok(None);
        }
        let lw = self
            .txn
            .last_writer
            .get(&(ti, rid_packed))
            .copied()
            .unwrap_or(0);
        if lw <= snap {
            // Heap holds the visible version: the normal instrumented path.
            let heap = self.tables[ti].heap.clone();
            let rid = Rid::unpack(rid_packed);
            let mut env = self.env();
            let frame = fetch_record(&mut env, &heap, rid, blocks)?;
            let v = env
                .ctx
                .load_i32(heap.field_addr_at(frame, rid.slot, col), MemDep::Chase);
            return Ok(Some(v));
        }
        // The heap moved past our snapshot: chase the chain newest-first
        // for the first image with ts <= snap. Each hop is a dependent cold
        // load — the version-chase cost multiversioning charges readers.
        let hops: Vec<(u64, u64, i32)> = self
            .txn
            .chains
            .get(&(ti, rid_packed))
            .ok_or_else(|| DbError::Internal("version chain missing for chased row".into()))?
            .iter()
            .rev()
            .map(|v| (v.ts, v.sim_addr, v.row[col]))
            .collect();
        for (ts, sim_addr, v) in hops {
            self.ctx.exec(&blocks.version_chase);
            self.ctx.touch(sim_addr, 16, MemDep::Chase);
            if ts <= snap {
                return Ok(Some(v));
            }
        }
        Err(DbError::Internal(
            "version chain has no image at or before the snapshot".into(),
        ))
    }

    // ------------------------------------------------------------------
    // Staged mutations
    // ------------------------------------------------------------------

    fn txn_update_add(
        &mut self,
        txn: TxnId,
        table: &str,
        key_col: &str,
        key: i32,
        set_col: &str,
        delta: i32,
    ) -> DbResult<QueryResult> {
        let (ti, _, sc, snap, rids) = self.txn_locate(txn, table, key_col, key, set_col)?;
        let blocks = Arc::clone(&self.profile.blocks);

        // Compute every new value before staging any, so an overflow
        // mid-statement stages nothing.
        let mut staged: Vec<(u64, i32)> = Vec::new();
        for rid in rids {
            self.ctx.exec(&blocks.update_step);
            let Some(v) = self.visible_field(txn, ti, rid, sc, snap, &blocks)? else {
                continue;
            };
            let nv = v.checked_add(delta).ok_or_else(|| DbError::ValueOverflow {
                table: table.to_string(),
                col: set_col.to_string(),
                key,
            })?;
            staged.push((rid, nv));
        }
        let rows = staged.len() as u64;
        let mut last = 0i32;
        let at = self
            .txn
            .active
            .get_mut(&txn.0)
            .ok_or(DbError::TxnUnknown { txn: txn.0 })?;
        for (rid, nv) in staged {
            at.writes.entry((ti, rid)).or_default().insert(sc, nv);
            last = nv;
        }
        Ok(QueryResult {
            value: last as f64,
            rows,
        })
    }

    fn txn_insert_row(
        &mut self,
        txn: TxnId,
        table: &str,
        values: Vec<i32>,
    ) -> DbResult<QueryResult> {
        let ti = self.table_idx(table)?;
        let arity = self.tables[ti].schema.arity();
        if values.len() != arity {
            return Err(DbError::ArityMismatch {
                expected: arity,
                got: values.len(),
            });
        }
        let at = self
            .txn
            .active
            .get_mut(&txn.0)
            .ok_or(DbError::TxnUnknown { txn: txn.0 })?;
        let blocks = Arc::clone(&self.profile.blocks);
        // Staging cost: format the row into the private tuple buffer. The
        // heap/index work is charged at commit, where it actually happens.
        self.ctx.exec(&blocks.insert_step);
        self.ctx
            .store_touch(blocks.tuple_buf, (arity * 4) as u32, MemDep::Demand);
        at.inserts.push((ti, values));
        Ok(QueryResult {
            value: 0.0,
            rows: 1,
        })
    }

    // ------------------------------------------------------------------
    // Install (shared by explicit commit and autocommit)
    // ------------------------------------------------------------------

    /// Hands out the next transaction id.
    pub(crate) fn fresh_txn_id(&mut self) -> u64 {
        self.txn.next_txn += 1;
        self.txn.next_txn - 1
    }

    /// The one code path that logs, applies and seals transaction `txn`:
    /// prechecks the inserts, appends a [`WalRecord::Op`] for every write
    /// and then every insert *before* any byte moves, applies them at the
    /// next commit timestamp and seals with one [`WalRecord::Commit`].
    /// Any error instead closes `txn` with one [`WalRecord::Abort`] and
    /// counts it aborted. Returns the commit timestamp.
    pub(crate) fn install(
        &mut self,
        txn: u64,
        writes: &WriteSet,
        inserts: &[(usize, Vec<i32>)],
    ) -> DbResult<u64> {
        let ts = self.txn.last_commit_ts + 1;
        let installed = (|| -> DbResult<()> {
            // Everything fallible about the inserts is checked before
            // anything applies, so the apply phase cannot half-finish.
            self.precheck_inserts(inserts)?;
            for (&(ti, rid), cols) in writes {
                for (&col, &new) in cols {
                    let old = self.heap_field_raw(ti, rid, col)?;
                    let table = self.tables[ti].name.clone();
                    let op = WalOp::Update {
                        table,
                        rid,
                        col,
                        old,
                        new,
                    };
                    self.wal_append(WalRecord::Op { txn, op });
                }
            }
            for (ti, values) in inserts {
                let (table, values) = (self.tables[*ti].name.clone(), values.clone());
                let op = WalOp::Insert { table, values };
                self.wal_append(WalRecord::Op { txn, op });
            }
            for (&(ti, rid), cols) in writes {
                self.apply_update_committed(ti, rid, cols, ts)?;
            }
            for (ti, values) in inserts {
                self.apply_insert_committed(*ti, values, ts)?;
            }
            Ok(())
        })();
        if let Err(e) = installed {
            self.wal_append(WalRecord::Abort { txn });
            self.txn.stats.aborted += 1;
            return Err(e);
        }
        self.wal_append(WalRecord::Commit { txn, ts });
        self.txn.last_commit_ts = ts;
        self.txn.stats.committed += 1;
        Ok(ts)
    }

    /// Raw (uninstrumented) read of one heap field — the WAL's pre-image
    /// source at install time.
    fn heap_field_raw(&self, ti: usize, rid_packed: u64, col: usize) -> DbResult<i32> {
        let rid = Rid::unpack(rid_packed);
        let page = self.tables[ti].heap.page_addr(rid.page)?;
        Ok(self
            .ctx
            .heap
            .read_i32(self.tables[ti].heap.field_addr_at(page, rid.slot, col)))
    }

    /// Appends one record to the WAL, charging the log-serialize path and a
    /// store burst in the simulated log region.
    fn wal_append(&mut self, rec: WalRecord) {
        let blocks = Arc::clone(&self.profile.blocks);
        self.ctx.exec(&blocks.wal_append);
        let bytes = wal_record_bytes(&rec);
        let off = reserve(&mut self.txn.wal.cursor, bytes, WAL_REGION_BYTES);
        self.ctx.store_run(WAL_REGION + off, bytes, MemDep::Demand);
        self.txn.wal.records.push(rec);
    }

    /// Installs one row's committed writes: pushes the superseded full-row
    /// image onto its version chain (a store burst in the simulated version
    /// region), overwrites the heap fields instrumented, and advances the
    /// row's last-writer timestamp.
    fn apply_update_committed(
        &mut self,
        ti: usize,
        rid_packed: u64,
        cols: &BTreeMap<usize, i32>,
        ts: u64,
    ) -> DbResult<()> {
        let rid = Rid::unpack(rid_packed);
        let heap = self.tables[ti].heap.clone();
        let page = heap.page_addr(rid.page)?;
        let arity = self.tables[ti].schema.arity();
        let mut row = Vec::with_capacity(arity);
        for c in 0..arity {
            row.push(
                self.ctx
                    .heap
                    .read_i32(heap.field_addr_at(page, rid.slot, c)),
            );
        }
        let prior = self
            .txn
            .last_writer
            .get(&(ti, rid_packed))
            .copied()
            .unwrap_or(0);
        // Charge the image copy into the version region.
        let bytes = (arity * 4) as u32 + 16;
        let off = reserve(&mut self.txn.version_cursor, bytes, VERSION_REGION_BYTES);
        let sim_addr = VERSION_REGION + off;
        self.ctx.store_run(sim_addr, bytes, MemDep::Demand);
        self.txn
            .chains
            .entry((ti, rid_packed))
            .or_default()
            .push(Version {
                ts: prior,
                sim_addr,
                row,
            });
        for (&col, &v) in cols {
            self.ctx
                .store_i32(heap.field_addr_at(page, rid.slot, col), v, MemDep::Demand);
        }
        self.txn.last_writer.insert((ti, rid_packed), ts);
        Ok(())
    }

    /// Validates everything fallible about a batch of staged inserts before
    /// any of them applies (arity was checked when each was staged): the
    /// fault-injection seam each index allocation would cross, and arena
    /// headroom for the worst-case page and node allocations. After this
    /// passes, the apply phase cannot fail halfway — the all-or-nothing
    /// guarantee for multi-insert commits.
    fn precheck_inserts(&mut self, inserts: &[(usize, Vec<i32>)]) -> DbResult<()> {
        if inserts.is_empty() {
            return Ok(());
        }
        let mut new_pages_per_table: HashMap<usize, u64> = HashMap::new();
        let mut n_per_table: HashMap<usize, u64> = HashMap::new();
        for (ti, _) in inserts {
            let t = &self.tables[*ti];
            let n_before = t.heap.n_records + n_per_table.get(ti).copied().unwrap_or(0);
            if n_before.is_multiple_of(t.heap.page_cap as u64) {
                *new_pages_per_table.entry(*ti).or_default() += 1;
            }
            *n_per_table.entry(*ti).or_default() += 1;
        }
        // Heap headroom: every new page plus one page of alignment slack.
        let heap_need: u64 = new_pages_per_table.values().sum::<u64>() * PAGE_SIZE + PAGE_SIZE;
        if new_pages_per_table.values().sum::<u64>() > 0
            && self.ctx.heap.used() + heap_need > self.ctx.heap.region().len
        {
            return Err(DbError::ArenaExhausted {
                requested: heap_need,
                used: self.ctx.heap.used(),
                capacity: self.ctx.heap.region().len,
            });
        }
        // Index headroom + fault seams: B+tree insert allocates through the
        // arena's panicking path, so the seam and the headroom bound must
        // both clear here, per insert per index.
        let mut index_need = 0u64;
        for i in 0..self.indexes.len() {
            let ti = self.indexes[i].table;
            let n = n_per_table.get(&ti).copied().unwrap_or(0);
            for _ in 0..n {
                if self.ctx.fault.should_fault(FaultSite::ArenaAlloc) {
                    return Err(DbError::ArenaExhausted {
                        requested: NODE_SIZE,
                        used: self.ctx.index.used(),
                        capacity: self.ctx.index.region().len,
                    });
                }
            }
            index_need += n * (self.indexes[i].btree.height as u64 + 3) * NODE_SIZE;
        }
        if index_need > 0 && self.ctx.index.used() + index_need > self.ctx.index.region().len {
            return Err(DbError::ArenaExhausted {
                requested: index_need,
                used: self.ctx.index.used(),
                capacity: self.ctx.index.region().len,
            });
        }
        Ok(())
    }

    /// Applies one committed insert: heap append, page registration,
    /// instrumented charges, index maintenance. [`Database::precheck_inserts`]
    /// must have passed; if a residual invariant failure still surfaces
    /// during index maintenance, the heap append is undone
    /// ([`crate::heap::HeapFile::unappend`]) so no dangling un-indexed
    /// record survives — the torn-write window this module closes.
    fn apply_insert_committed(&mut self, ti: usize, values: &[i32], ts: u64) -> DbResult<()> {
        let blocks = Arc::clone(&self.profile.blocks);
        let arity = self.tables[ti].schema.arity();
        let mut buf = Vec::with_capacity(arity * 4);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let table_ref = &mut self.tables[ti];
        let pages_before = table_ref.heap.n_pages();
        let rid = table_ref.heap.insert_raw(&mut self.ctx.heap, &buf)?;
        if table_ref.heap.n_pages() != pages_before {
            let page_no = table_ref.heap.n_pages() - 1;
            let addr = table_ref.heap.page_addr(page_no)?;
            self.bufpool
                .register(&mut self.ctx.misc, table_ref.heap.page_id(page_no), addr);
        }
        self.ctx.exec(&blocks.insert_step);
        let page_addr = self.tables[ti].heap.page_addr(rid.page)?;
        store_record_fields(
            &mut self.ctx,
            &self.tables[ti].heap,
            page_addr,
            rid.slot,
            MemDep::Demand,
        );
        self.ctx
            .store_touch(page_addr + HDR_NRECS, 4, MemDep::Demand);

        if let Err(e) = self.maintain_indexes_for_insert(ti, values, rid, &blocks) {
            // All-or-nothing: wind the heap append back before surfacing.
            self.tables[ti].heap.unappend(&mut self.ctx.heap);
            return Err(e);
        }
        self.txn.created.insert((ti, rid.pack()), ts);
        self.txn.last_writer.insert((ti, rid.pack()), ts);
        Ok(())
    }

    fn maintain_indexes_for_insert(
        &mut self,
        ti: usize,
        values: &[i32],
        rid: Rid,
        blocks: &Arc<crate::profiles::EngineBlocks>,
    ) -> DbResult<()> {
        let maintained: Vec<usize> = (0..self.indexes.len())
            .filter(|&i| self.indexes[i].table == ti)
            .collect();
        for i in maintained {
            let key = values[self.indexes[i].col];
            let btree_snapshot = self.indexes[i].btree.clone();
            let _ = descend_to_leaf(&mut self.env(), &btree_snapshot, key, blocks);
            self.indexes[i]
                .btree
                .insert(&mut self.ctx.index, key, rid.pack());
            // Entry shift within the leaf: charge a bounded write burst.
            let leaf = *self.indexes[i]
                .btree
                .descend(&self.ctx.index, key)
                .last()
                .ok_or_else(|| {
                    DbError::Internal("B+tree descend reached no leaf during insert".into())
                })?;
            self.ctx.store_touch(leaf + 24, 12 * 32, MemDep::Demand);
        }
        Ok(())
    }
}
