//! Workload set-up: seeded data, the catalog (memory-only or persisted and
//! reopened), the seeded plan pool, the TCP server and the warm-up pass —
//! everything `setup_s` times — plus the in-memory catalog the digest oracle
//! replays against.

use crate::cli::Workload;
use dbtouch_core::catalog::SharedCatalog;
use dbtouch_core::kernel::ObjectId;
use dbtouch_core::morsel::window_stats;
use dbtouch_net::{NetServer, TcpClient};
use dbtouch_server::{ClientSession, ExplorationClient, ServerConfig};
use dbtouch_storage::column::Column;
use dbtouch_storage::table::Table;
use dbtouch_types::{DbTouchError, KernelConfig, Result, RowRange, SizeCm};
use dbtouch_workload::{
    plan_explorers, plan_segment_sweep, segment_sweep_config, ExplorerPlan, Scenario,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Explored-object view size, the one every scenario helper uses.
const VIEW: SizeCm = SizeCm {
    width: 2.0,
    height: 12.0,
};

/// The fixed shape of one workload (recorded in `WORKLOADS.md`).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Rows of the explored column.
    pub rows: usize,
    /// Client connections, one client thread each.
    pub connections: usize,
    /// Gestures (`run_trace` + `snapshot`) per session.
    pub session_len: usize,
    /// Distinct seeded session plans; sessions cycle through them.
    pub plan_pool: usize,
    /// Summary half-window of the segment-sweep plans.
    pub half_window: u64,
    /// Rows per scan segment (segment-sweep workloads).
    pub segment_rows: u64,
    /// Buffer-pool pages of the persisted catalog.
    pub pool_pages: usize,
    /// Rows of the churn table (`churn_cold` only).
    pub churn_rows: usize,
    /// Period between the open-loop writer's due times (`churn_cold` only).
    pub writer_period_ms: u64,
}

pub fn shape(workload: Workload) -> Shape {
    let base = Shape {
        rows: 0,
        connections: 2,
        session_len: 8,
        plan_pool: 1,
        half_window: 0,
        segment_rows: 0,
        pool_pages: 0,
        churn_rows: 0,
        writer_period_ms: 0,
    };
    match workload {
        Workload::SurveyTcp => Shape {
            rows: 1_000_000,
            plan_pool: 4096,
            ..base
        },
        Workload::WideScan => Shape {
            rows: 4_000_000,
            session_len: 32,
            plan_pool: 8,
            half_window: 32_768,
            segment_rows: 16_384,
            pool_pages: 4096,
            ..base
        },
        Workload::ChurnCold => Shape {
            rows: 1_000_000,
            session_len: 16,
            plan_pool: 8,
            half_window: 32_768,
            segment_rows: 16_384,
            pool_pages: 100,
            churn_rows: 100_000,
            writer_period_ms: 500,
            ..base
        },
    }
}

/// A served workload, ready for load.
pub struct Served {
    pub server: NetServer,
    pub catalog: Arc<SharedCatalog>,
    pub object: ObjectId,
    pub plans: Vec<ExplorerPlan>,
    /// The table the `churn_cold` writer restructures.
    pub churn_table: Option<ObjectId>,
    /// Directory of the persisted catalog.
    pub dir: Option<PathBuf>,
    /// `SharedCatalog::open` time, nanoseconds (persisted workloads).
    pub catalog_open_ns: u64,
    /// Bytes of live user data (8-byte values, every live column).
    pub user_bytes: u64,
}

impl Served {
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Stop the server and delete the persisted catalog.
    pub fn teardown(self) -> Result<()> {
        self.server.shutdown();
        drop(self.catalog);
        if let Some(dir) = self.dir {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| DbTouchError::Io(format!("remove {}: {e}", dir.display())))?;
        }
        Ok(())
    }
}

fn kernel_config(workload: Workload, traced: bool) -> KernelConfig {
    let s = shape(workload);
    let config = match workload {
        Workload::SurveyTcp => KernelConfig::default(),
        Workload::WideScan | Workload::ChurnCold => {
            segment_sweep_config(2, s.segment_rows).with_buffer_pool_pages(s.pool_pages)
        }
    };
    if traced {
        config.with_trace_head_sample_every(1)
    } else {
        config
    }
}

fn scenario(workload: Workload, seed: u64) -> Scenario {
    let rows = shape(workload).rows;
    match workload {
        Workload::SurveyTcp => Scenario::sky_survey(rows, seed),
        Workload::WideScan | Workload::ChurnCold => Scenario::monitoring_stream(rows, seed),
    }
}

/// The explored column: f64 sky brightness, or quantized i64 monitoring
/// readings (the type the segment kernel decomposes).
fn explored_column(workload: Workload, seed: u64) -> Column {
    let scenario = scenario(workload, seed);
    match workload {
        Workload::SurveyTcp => scenario.signal_column(),
        Workload::WideScan | Workload::ChurnCold => scenario.signal_column_i64(),
    }
}

/// Two 8-byte columns: a key the writer never moves and the column it
/// ping-pongs.
fn churn_table(rows: usize) -> Result<Table> {
    let rows = rows as i64;
    Table::from_columns(
        "churn",
        vec![
            Column::from_i64("churn_key", (0..rows).collect()),
            Column::from_i64("churn_c0", (0..rows).map(|i| i * 3).collect()),
        ],
    )
}

fn plans(
    workload: Workload,
    catalog: &SharedCatalog,
    object: ObjectId,
    seed: u64,
) -> Result<Vec<ExplorerPlan>> {
    let s = shape(workload);
    match workload {
        Workload::SurveyTcp => plan_explorers(catalog, object, s.plan_pool, s.session_len, seed),
        Workload::WideScan | Workload::ChurnCold => (0..s.plan_pool as u64)
            .map(|i| {
                let plan_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i);
                plan_segment_sweep(catalog, object, s.session_len, s.half_window, plan_seed)
            })
            .collect(),
    }
}

/// Build, serve and warm one workload. `dir` must not exist yet; it holds
/// the persisted catalog of the persisted workloads.
pub fn setup(workload: Workload, seed: u64, traced: bool, dir: &Path) -> Result<Served> {
    let s = shape(workload);
    let config = kernel_config(workload, traced);
    let column = explored_column(workload, seed);
    let mut user_bytes = column.len() * 8;
    let persisted = matches!(workload, Workload::WideScan | Workload::ChurnCold);
    let (catalog, object, churn_table, dir, catalog_open_ns) = if persisted {
        // Load in memory, persist, and serve the reopened (paged) catalog:
        // every later publish is persisted as it happens.
        let staging = SharedCatalog::new(config.clone());
        let object = staging.load_column_typed(column, VIEW)?;
        let churn = if s.churn_rows > 0 {
            user_bytes += 2 * s.churn_rows as u64 * 8;
            Some(staging.load_table(churn_table(s.churn_rows)?, SizeCm::new(8.0, 10.0))?)
        } else {
            None
        };
        staging.persist_to(dir)?;
        drop(staging);
        let started = Instant::now();
        let catalog = SharedCatalog::open(dir, config)?;
        let open_ns = started.elapsed().as_nanos() as u64;
        (
            Arc::new(catalog),
            object,
            churn,
            Some(dir.to_path_buf()),
            open_ns,
        )
    } else {
        let catalog = SharedCatalog::new(config);
        let object = catalog.load_column_typed(column, VIEW)?;
        (Arc::new(catalog), object, None, None, 0)
    };
    let plans = plans(workload, &catalog, object, seed)?;
    let server = NetServer::serve(
        ServerConfig::with_workers(2)
            .with_catalog(Arc::clone(&catalog))
            .with_listen_addr("127.0.0.1:0"),
    )?;
    // Warm-up: one full session of the first plan over TCP — connection
    // threads start and the persisted column faults into the pool.
    let client = TcpClient::new(server.local_addr().to_string());
    let mut session = client.open_session()?;
    session.set_action(object, plans[0].action.clone())?;
    for trace in &plans[0].traces {
        session.run_trace(object, trace.clone())?;
    }
    session.snapshot()?;
    session.close()?;
    if persisted {
        // Served windows are mostly answered from zone maps and read only
        // their ragged edges, so the session above leaves most pages cold.
        // Segments one row short of a zone block are never index-answered:
        // this pass reads every page of the column once.
        let data = catalog.data(object)?;
        let block = data
            .indexes()
            .first()
            .and_then(Option::as_ref)
            .map_or(4096, |i| i.block_rows());
        let all = RowRange::new(0, data.row_count());
        window_stats(&data, 0, 0, all, block.saturating_sub(1).max(1), None, None)?;
    }
    Ok(Served {
        server,
        catalog,
        object,
        plans,
        churn_table,
        dir,
        catalog_open_ns,
        user_bytes,
    })
}

/// The digest oracle's catalog: the same column in memory, with the same
/// kernel knobs.
pub fn oracle_catalog(workload: Workload, seed: u64) -> Result<(Arc<SharedCatalog>, ObjectId)> {
    let catalog = Arc::new(SharedCatalog::new(kernel_config(workload, false)));
    let object = catalog.load_column_typed(explored_column(workload, seed), VIEW)?;
    Ok((catalog, object))
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
