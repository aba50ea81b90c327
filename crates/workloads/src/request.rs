//! Request, stage, and phase types shared by all five application models.
//!
//! A *request* (the paper's unit of analysis, §1) is the set of server
//! activities serving one user call. We represent it as a sequence of
//! [`Stage`]s — one per server component it propagates through (web tier,
//! application server, database; single-stage for the web server) — each a
//! sequence of behavior [`Phase`]s plus a pre-drawn stream of
//! [`SyscallEvent`]s.
//!
//! A phase carries a [`SegmentProfile`] (base CPI, L2 reference intensity,
//! working set, locality): the *inherent* behavior of that stretch of
//! execution. How it actually performs — the CPI and L2 miss ratio a
//! hardware counter would observe — is decided at run time by the
//! contention model in `rbv-mem`, given whatever happens to be co-running.
//! This split is exactly the paper's distinction between application
//! semantics and dynamic resource competition (§2.3).

use std::fmt;

use rbv_mem::SegmentProfile;
use rbv_sim::Instructions;

use crate::syscalls::SyscallName;

/// The five server applications of the paper plus the two microbenchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    /// Apache 2.2 serving the SPECweb99 static content mix.
    WebServer,
    /// TPC-C order-entry transactions on MySQL/InnoDB.
    Tpcc,
    /// TPC-H decision support (17-query subset) on MySQL.
    Tpch,
    /// RUBiS three-tier online auction (Apache / JBoss EJB / MySQL).
    Rubis,
    /// WeBWorK user-content-driven online teaching application.
    Webwork,
    /// Mbench-Spin: CPU spin with almost no data access (Table 1).
    MbenchSpin,
    /// Mbench-Data: repeated sequential scans of 16 MB (Table 1).
    MbenchData,
}

impl AppId {
    /// The five real server applications, in the paper's order.
    pub const SERVER_APPS: [AppId; 5] = [
        AppId::WebServer,
        AppId::Tpcc,
        AppId::Tpch,
        AppId::Rubis,
        AppId::Webwork,
    ];

    /// The per-request counter sampling period the paper uses for this
    /// application (§3.1): 10 µs for the web server, 100 µs for TPCC and
    /// RUBiS, 1 ms for the long-request TPCH and WeBWorK. Microbenchmarks
    /// use the web server's fine period.
    pub fn sampling_period_micros(self) -> u64 {
        match self {
            AppId::WebServer | AppId::MbenchSpin | AppId::MbenchData => 10,
            AppId::Tpcc | AppId::Rubis => 100,
            AppId::Tpch | AppId::Webwork => 1_000,
        }
    }

    /// The instruction-count scale every experiment harness runs this
    /// application at. WeBWorK requests run ~600 M instructions and TPC-H
    /// queries ~100 M at paper scale; the harnesses scale the two
    /// long-request applications down (keeping every ratio — request
    /// length spreads, syscall densities, phase granularity relative to
    /// the sampling period — intact) so full experiment suites complete in
    /// minutes. EXPERIMENTS.md documents this.
    pub fn harness_scale(self) -> f64 {
        match self {
            AppId::Tpch => 0.5,
            AppId::Webwork => 0.1,
            AppId::WebServer
            | AppId::Tpcc
            | AppId::Rubis
            | AppId::MbenchSpin
            | AppId::MbenchData => 1.0,
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AppId::WebServer => "Web server",
            AppId::Tpcc => "TPCC",
            AppId::Tpch => "TPCH",
            AppId::Rubis => "RUBiS",
            AppId::Webwork => "WeBWorK",
            AppId::MbenchSpin => "Mbench-Spin",
            AppId::MbenchData => "Mbench-Data",
        };
        f.write_str(name)
    }
}

/// Application-level class of a request: the paper groups requests with
/// "similar application-level semantics and instruction streams" (§4.3) by
/// exactly these identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestClass {
    /// SPECweb99 static file class (0 = 100 B range .. 3 = 100 KB–900 KB).
    WebFile(u8),
    /// TPC-C transaction type.
    TpccTxn(TpccTxn),
    /// TPC-H query number (2..22, the 17-query subset).
    TpchQuery(u8),
    /// RUBiS interaction type.
    Rubis(RubisInteraction),
    /// WeBWorK teacher-created problem identifier.
    WebworkProblem(u32),
    /// Microbenchmark iteration.
    Mbench,
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestClass::WebFile(c) => write!(f, "web-class{c}"),
            RequestClass::TpccTxn(t) => write!(f, "tpcc-{t}"),
            RequestClass::TpchQuery(q) => write!(f, "tpch-Q{q}"),
            RequestClass::Rubis(i) => write!(f, "rubis-{i}"),
            RequestClass::WebworkProblem(p) => write!(f, "webwork-{p}"),
            RequestClass::Mbench => write!(f, "mbench"),
        }
    }
}

/// TPC-C transaction types with the benchmark's standard mix
/// (45 / 43 / 4 / 4 / 4, §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TpccTxn {
    /// "new order" — 45% of requests.
    NewOrder,
    /// "payment" — 43%.
    Payment,
    /// "order status" — 4%.
    OrderStatus,
    /// "delivery" — 4%.
    Delivery,
    /// "stock level" — 4%.
    StockLevel,
}

impl TpccTxn {
    /// All types with their mix weight in percent.
    pub const MIX: [(TpccTxn, u32); 5] = [
        (TpccTxn::NewOrder, 45),
        (TpccTxn::Payment, 43),
        (TpccTxn::OrderStatus, 4),
        (TpccTxn::Delivery, 4),
        (TpccTxn::StockLevel, 4),
    ];
}

impl fmt::Display for TpccTxn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TpccTxn::NewOrder => "new-order",
            TpccTxn::Payment => "payment",
            TpccTxn::OrderStatus => "order-status",
            TpccTxn::Delivery => "delivery",
            TpccTxn::StockLevel => "stock-level",
        };
        f.write_str(name)
    }
}

/// Core RUBiS interactions (selling, browsing, bidding; §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RubisInteraction {
    /// Browse top-level categories.
    BrowseCategories,
    /// Search items in a category (the Figure 2 example).
    SearchItemsByCategory,
    /// View one item's detail page.
    ViewItem,
    /// View a user's profile and comments.
    ViewUserInfo,
    /// Place a bid on an item.
    PlaceBid,
    /// Put a comment on a user.
    PutComment,
    /// Register a new item for sale.
    RegisterItem,
    /// The user's own summary page.
    AboutMe,
}

impl RubisInteraction {
    /// All interactions with browse-heavy mix weights.
    pub const MIX: [(RubisInteraction, u32); 8] = [
        (RubisInteraction::BrowseCategories, 12),
        (RubisInteraction::SearchItemsByCategory, 25),
        (RubisInteraction::ViewItem, 25),
        (RubisInteraction::ViewUserInfo, 10),
        (RubisInteraction::PlaceBid, 12),
        (RubisInteraction::PutComment, 6),
        (RubisInteraction::RegisterItem, 5),
        (RubisInteraction::AboutMe, 5),
    ];
}

impl fmt::Display for RubisInteraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RubisInteraction::BrowseCategories => "BrowseCategories",
            RubisInteraction::SearchItemsByCategory => "SearchItemsByCategory",
            RubisInteraction::ViewItem => "ViewItem",
            RubisInteraction::ViewUserInfo => "ViewUserInfo",
            RubisInteraction::PlaceBid => "PlaceBid",
            RubisInteraction::PutComment => "PutComment",
            RubisInteraction::RegisterItem => "RegisterItem",
            RubisInteraction::AboutMe => "AboutMe",
        };
        f.write_str(name)
    }
}

/// The server component a stage executes in. Stage hops model the paper's
/// request context propagation through socket IPC (§2.1, [27 §4.1]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Front-end web server process.
    WebTier,
    /// Application server (JBoss EJB container for RUBiS).
    AppTier,
    /// Database server process.
    Database,
    /// Single-process application (web server, WeBWorK handler).
    Standalone,
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Component::WebTier => "web-tier",
            Component::AppTier => "app-tier",
            Component::Database => "database",
            Component::Standalone => "standalone",
        };
        f.write_str(name)
    }
}

/// One behavior phase: an instruction range with a fixed inherent profile.
///
/// `end_ins` is cumulative within the enclosing stage: phase `i` covers
/// instructions `[phases[i-1].end_ins, phases[i].end_ins)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Inherent hardware behavior of this stretch of execution.
    pub profile: SegmentProfile,
    /// Cumulative instruction offset at which the phase ends.
    pub end_ins: Instructions,
}

/// A system call issued at a given instruction offset within a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallEvent {
    /// Cumulative instruction offset of the call within the stage.
    pub at_ins: Instructions,
    /// Which system call.
    pub name: SyscallName,
}

/// One stage of a request: a contiguous execution within one component.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Which server component runs the stage.
    pub component: Component,
    /// Behavior phases, cumulative, non-empty, strictly increasing ends.
    pub phases: Vec<Phase>,
    /// System calls, sorted by `at_ins`.
    pub syscalls: Vec<SyscallEvent>,
}

impl Stage {
    /// Total instruction count of the stage.
    ///
    /// # Panics
    ///
    /// Panics if the stage has no phases (invalid by construction).
    pub fn total_instructions(&self) -> Instructions {
        let Some(last) = self.phases.last() else {
            panic!("stage has no phases");
        };
        last.end_ins
    }

    /// The phase active at instruction offset `ins` (clamped to the last
    /// phase at or beyond the end).
    pub fn phase_at(&self, ins: Instructions) -> &Phase {
        match self.phases.binary_search_by(|p| p.end_ins.cmp(&ins)) {
            // ins == some end boundary: that phase is over; next one active.
            Ok(i) => self.phases.get(i + 1).unwrap_or(&self.phases[i]),
            Err(i) => self
                .phases
                .get(i)
                .or_else(|| self.phases.last())
                .unwrap_or_else(|| panic!("stage has no phases")),
        }
    }

    /// Checks structural invariants: non-empty, strictly increasing phase
    /// ends, sorted syscalls within bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("stage has no phases".into());
        }
        let mut prev = Instructions::ZERO;
        for (i, p) in self.phases.iter().enumerate() {
            if p.end_ins <= prev {
                return Err(format!("phase {i} end {} not increasing", p.end_ins));
            }
            p.profile.validate()?;
            prev = p.end_ins;
        }
        let total = self.total_instructions();
        let mut prev_sc = Instructions::ZERO;
        for (i, sc) in self.syscalls.iter().enumerate() {
            if i > 0 && sc.at_ins < prev_sc {
                return Err(format!("syscall {i} at {} out of order", sc.at_ins));
            }
            if sc.at_ins > total {
                return Err(format!(
                    "syscall {i} at {} beyond stage end {total}",
                    sc.at_ins
                ));
            }
            prev_sc = sc.at_ins;
        }
        Ok(())
    }
}

/// A complete request: class identity plus its stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Which application issued it.
    pub app: AppId,
    /// Application-level class (transaction type, query id, ...).
    pub class: RequestClass,
    /// Stages in execution order.
    pub stages: Vec<Stage>,
}

impl Request {
    /// Total instructions across all stages.
    pub fn total_instructions(&self) -> Instructions {
        self.stages.iter().map(Stage::total_instructions).sum()
    }

    /// The full ordered system call name sequence across stages (the
    /// Magpie-style software signature used by the Levenshtein measure).
    pub fn syscall_names(&self) -> Vec<SyscallName> {
        self.stages
            .iter()
            .flat_map(|s| s.syscalls.iter().map(|e| e.name))
            .collect()
    }

    /// Checks all stage invariants plus non-emptiness.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err("request has no stages".into());
        }
        for (i, s) in self.stages.iter().enumerate() {
            s.validate().map_err(|e| format!("stage {i}: {e}"))?;
        }
        Ok(())
    }
}

/// A source of requests: each application model implements this.
pub trait RequestFactory {
    /// Which application this factory models.
    fn app(&self) -> AppId;

    /// Draws the next request. Implementations are deterministic given
    /// their construction-time seed.
    fn next_request(&mut self) -> Request;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> SegmentProfile {
        SegmentProfile {
            base_cpi: 1.0,
            l2_refs_per_ins: 0.005,
            working_set_bytes: 1e6,
            reuse_locality: 0.8,
        }
    }

    fn stage(ends: &[u64]) -> Stage {
        Stage {
            component: Component::Standalone,
            phases: ends
                .iter()
                .map(|&e| Phase {
                    profile: profile(),
                    end_ins: Instructions::new(e),
                })
                .collect(),
            syscalls: vec![],
        }
    }

    #[test]
    fn total_instructions_is_last_phase_end() {
        let s = stage(&[100, 300, 450]);
        assert_eq!(s.total_instructions(), Instructions::new(450));
    }

    #[test]
    fn phase_at_selects_correct_phase() {
        let s = stage(&[100, 300, 450]);
        assert_eq!(s.phase_at(Instructions::new(0)).end_ins.get(), 100);
        assert_eq!(s.phase_at(Instructions::new(99)).end_ins.get(), 100);
        // Exactly at a boundary: the next phase is active.
        assert_eq!(s.phase_at(Instructions::new(100)).end_ins.get(), 300);
        assert_eq!(s.phase_at(Instructions::new(449)).end_ins.get(), 450);
        // At or past the end: clamps to last.
        assert_eq!(s.phase_at(Instructions::new(450)).end_ins.get(), 450);
        assert_eq!(s.phase_at(Instructions::new(999)).end_ins.get(), 450);
    }

    #[test]
    fn validate_catches_bad_structure() {
        let empty = Stage {
            component: Component::Standalone,
            phases: vec![],
            syscalls: vec![],
        };
        assert!(empty.validate().is_err());

        let mut s = stage(&[100, 100]);
        assert!(s.validate().is_err()); // non-increasing
        s = stage(&[100, 200]);
        assert!(s.validate().is_ok());

        s.syscalls = vec![SyscallEvent {
            at_ins: Instructions::new(300),
            name: SyscallName::Read,
        }];
        assert!(s.validate().is_err()); // beyond end

        s.syscalls = vec![
            SyscallEvent {
                at_ins: Instructions::new(50),
                name: SyscallName::Read,
            },
            SyscallEvent {
                at_ins: Instructions::new(20),
                name: SyscallName::Write,
            },
        ];
        assert!(s.validate().is_err()); // out of order
    }

    #[test]
    fn request_aggregates_stages() {
        let r = Request {
            app: AppId::Rubis,
            class: RequestClass::Rubis(RubisInteraction::ViewItem),
            stages: vec![stage(&[100]), stage(&[200]), stage(&[50])],
        };
        assert_eq!(r.total_instructions(), Instructions::new(350));
        assert!(r.validate().is_ok());

        let empty = Request {
            app: AppId::Rubis,
            class: RequestClass::Rubis(RubisInteraction::ViewItem),
            stages: vec![],
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn syscall_names_flatten_across_stages() {
        let mut s1 = stage(&[100]);
        s1.syscalls = vec![SyscallEvent {
            at_ins: Instructions::new(10),
            name: SyscallName::Accept,
        }];
        let mut s2 = stage(&[100]);
        s2.syscalls = vec![SyscallEvent {
            at_ins: Instructions::new(20),
            name: SyscallName::Writev,
        }];
        let r = Request {
            app: AppId::WebServer,
            class: RequestClass::WebFile(1),
            stages: vec![s1, s2],
        };
        assert_eq!(
            r.syscall_names(),
            vec![SyscallName::Accept, SyscallName::Writev]
        );
    }

    #[test]
    fn sampling_periods_match_paper() {
        assert_eq!(AppId::WebServer.sampling_period_micros(), 10);
        assert_eq!(AppId::Tpcc.sampling_period_micros(), 100);
        assert_eq!(AppId::Rubis.sampling_period_micros(), 100);
        assert_eq!(AppId::Tpch.sampling_period_micros(), 1_000);
        assert_eq!(AppId::Webwork.sampling_period_micros(), 1_000);
    }

    #[test]
    fn display_names() {
        assert_eq!(AppId::WebServer.to_string(), "Web server");
        assert_eq!(
            RequestClass::TpccTxn(TpccTxn::NewOrder).to_string(),
            "tpcc-new-order"
        );
        assert_eq!(RequestClass::TpchQuery(20).to_string(), "tpch-Q20");
        assert_eq!(
            RequestClass::Rubis(RubisInteraction::SearchItemsByCategory).to_string(),
            "rubis-SearchItemsByCategory"
        );
    }

    #[test]
    fn tpcc_mix_sums_to_100() {
        let total: u32 = TpccTxn::MIX.iter().map(|&(_, w)| w).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn rubis_mix_sums_to_100() {
        let total: u32 = RubisInteraction::MIX.iter().map(|&(_, w)| w).sum();
        assert_eq!(total, 100);
    }
}
