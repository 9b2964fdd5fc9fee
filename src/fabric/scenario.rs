//! What to run: the deployment vocabulary ([`SystemKind`],
//! [`Deployment`], [`ReplicaPlacement`]) and the validated [`Scenario`]
//! with its [`ScenarioBuilder`].

use std::fmt;
use std::sync::Arc;

use skywalker_core::{PolicyFactory, PolicyKind, PushMode, RoutingConstraint};
use skywalker_net::Region;
use skywalker_replica::{EngineSpec, GpuProfile, ReplicaRole};
use skywalker_sim::{DetRng, SimTime};
use skywalker_workload::{ClientListSource, ClientSpec, TrafficSource};

use crate::fleet::FleetPlan;

/// Which serving system to deploy — the seven systems of Fig. 8 plus the
/// region-local baseline of Fig. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// GKE Gateway: per-region entry, least-connection spill across
    /// clusters, no LLM awareness.
    GkeGateway,
    /// Round robin behind one centralized balancer.
    RoundRobin,
    /// Least load behind one centralized balancer.
    LeastLoad,
    /// Consistent hashing behind one centralized balancer.
    ConsistentHash,
    /// SGLang Router: cache-aware policy, blind pushing, centralized.
    SglRouter,
    /// SkyWalker-CH: geo-distributed, ring hashing, SP-P.
    SkyWalkerCh,
    /// SkyWalker: geo-distributed, prefix trees, SP-P.
    SkyWalker,
    /// Region-local: per-region balancer, no cross-region forwarding.
    RegionLocal,
}

impl SystemKind {
    /// All seven systems of the Fig. 8 comparison, in the paper's order.
    pub const FIG8: [SystemKind; 7] = [
        SystemKind::GkeGateway,
        SystemKind::RoundRobin,
        SystemKind::LeastLoad,
        SystemKind::ConsistentHash,
        SystemKind::SglRouter,
        SystemKind::SkyWalkerCh,
        SystemKind::SkyWalker,
    ];

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::GkeGateway => "GKE Gateway",
            SystemKind::RoundRobin => "RR",
            SystemKind::LeastLoad => "LL",
            SystemKind::ConsistentHash => "CH",
            SystemKind::SglRouter => "SGL",
            SystemKind::SkyWalkerCh => "SkyWalker-CH",
            SystemKind::SkyWalker => "SkyWalker",
            SystemKind::RegionLocal => "Region-Local",
        }
    }

    /// A [`ScenarioBuilder`] preconfigured with this system's label and
    /// deployment shape — the FIG8 presets are thin wrappers over the
    /// builder.
    pub fn builder(&self) -> ScenarioBuilder {
        Scenario::builder().system(*self)
    }

    /// The deployment shape this system uses.
    pub fn deployment(&self) -> Deployment {
        use PolicyKind::{CacheAware, ConsistentHash, LeastLoad, RoundRobin};
        match self {
            SystemKind::GkeGateway => {
                Deployment::per_region(LeastLoad, PushMode::Outstanding { max: 8 }, true, 8)
            }
            SystemKind::RoundRobin => Deployment::centralized(RoundRobin),
            SystemKind::LeastLoad => Deployment::centralized(LeastLoad),
            SystemKind::ConsistentHash => Deployment::centralized(ConsistentHash),
            SystemKind::SglRouter => Deployment::centralized(CacheAware),
            SystemKind::SkyWalkerCh => {
                Deployment::per_region(ConsistentHash, PushMode::Pending, true, 4)
            }
            SystemKind::SkyWalker => Deployment::per_region(CacheAware, PushMode::Pending, true, 4),
            SystemKind::RegionLocal => {
                Deployment::per_region(CacheAware, PushMode::Pending, false, 4)
            }
        }
    }
}

/// Deployment shape: where balancers sit and how they behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// One balancer in `lb_region` fronting every replica everywhere —
    /// the naive global coordinator of Fig. 1(b).
    Centralized {
        /// Where the single balancer runs (the paper deploys it in the
        /// US).
        lb_region: Region,
        /// Placement policy.
        policy: PolicyKind,
        /// Admission discipline.
        push: PushMode,
    },
    /// One balancer per region that hosts replicas or clients —
    /// SkyWalker's shape (Fig. 1(c)), also used for region-local and
    /// gateway baselines.
    PerRegion {
        /// Placement policy (both layers).
        policy: PolicyKind,
        /// Admission discipline.
        push: PushMode,
        /// Whether cross-region forwarding is enabled.
        forward: bool,
        /// Peer queue buffer τ.
        tau: u32,
        /// Regulatory constraint.
        constraint: RoutingConstraint,
    },
}

impl Deployment {
    fn centralized(policy: PolicyKind) -> Self {
        Deployment::Centralized {
            lb_region: Region::UsEast,
            policy,
            push: PushMode::Blind,
        }
    }

    fn per_region(policy: PolicyKind, push: PushMode, forward: bool, tau: u32) -> Self {
        Deployment::PerRegion {
            policy,
            push,
            forward,
            tau,
            constraint: RoutingConstraint::Unrestricted,
        }
    }
}

/// A replica to deploy.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaPlacement {
    /// Region hosting the replica.
    pub region: Region,
    /// GPU/model profile.
    pub profile: GpuProfile,
}

/// One experiment: a deployment shape, a policy, a fleet, a traffic
/// source, a fleet plan.
///
/// Build one with [`Scenario::builder`] (any combination of deployment,
/// custom [`PolicyFactory`], fleet, workload or [`TrafficSource`],
/// [`FleetPlan`], and constraint); [`SystemKind::builder`] starts from a
/// preset.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label for experiment tables.
    pub label: String,
    /// The preset this scenario was derived from, if any. Custom-built
    /// scenarios have `None` here — nothing in the fabric dispatches on
    /// it.
    pub system: Option<SystemKind>,
    /// The deployment shape to run.
    pub deployment: Deployment,
    /// Builds the routing policies for every balancer. `None` runs the
    /// built-in [`PolicyKind`] named by the deployment.
    pub policy_factory: Option<Arc<dyn PolicyFactory>>,
    /// The replica fleet.
    pub replicas: Vec<ReplicaPlacement>,
    /// Serving role per replica, indexed like `replicas`: either empty
    /// (the default — the classical fleet, every replica
    /// [`ReplicaRole::Colocated`]) or exactly as long as the fleet.
    /// [`ReplicaRole::PrefillOnly`] replicas hand every request off to
    /// a decode-capable peer after the prompt phase;
    /// [`ReplicaRole::DecodeOnly`] replicas are invisible to the
    /// balancers and accept only those handoffs.
    pub roles: Vec<ReplicaRole>,
    /// The client traffic. Each run clones the source, so the same
    /// scenario can be replayed any number of times; pre-materialized
    /// populations ride along as a [`ClientListSource`].
    pub traffic: Box<dyn TrafficSource>,
    /// The fleet control plane: a streaming plan the fabric polls for
    /// joins, drains, crashes, and balancer flaps as sim time advances.
    /// `None` runs a static fleet.
    pub fleet_plan: Option<Box<dyn FleetPlan>>,
    /// The serving engine every replica runs (batch policy + KV
    /// evictor), cloned per replica — including replicas a fleet plan
    /// joins mid-run. `None` runs the default engine (`FcfsBatch` +
    /// `LruEvictor`, the historical behavior).
    pub engine: Option<EngineSpec>,
}

impl Scenario {
    /// An empty builder: configure deployment, policy, fleet, workload,
    /// fleet plan, and constraints fluently, then
    /// [`ScenarioBuilder::build`].
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Overrides the deployment shape (ablation studies).
    pub fn with_deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = deployment;
        self
    }

    /// Materializes the clients a fresh copy of the traffic source would
    /// emit by `until` — inspection/testing helper (e.g. expected-request
    /// accounting). The run itself never calls this; it pulls from the
    /// source incrementally. With `until = SimTime::MAX` an *unbounded*
    /// source will generate without returning — pass a bounded horizon
    /// for open-ended feeds.
    pub fn clients_until(&self, until: SimTime) -> Vec<ClientSpec> {
        let mut source = self.traffic.clone();
        let mut rng = DetRng::for_component(0, "scenario/clients-until");
        source
            .next_batch(until, &mut rng)
            .into_iter()
            .map(|e| e.spec)
            .collect()
    }
}

/// Why [`ScenarioBuilder::build`] refused to assemble a scenario.
/// Validation happens up front so a bad configuration fails with a clear
/// error instead of deadlocking or panicking deep inside the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// No replica a balancer can route to: the fleet is empty, or every
    /// replica is [`ReplicaRole::DecodeOnly`] (invisible to the
    /// balancers), so nothing would ever be dispatched.
    EmptyFleet,
    /// No traffic was configured, or the provided source was already
    /// exhausted — there is nothing to run.
    NoTraffic,
    /// The role assignment puts a prefill-only replica in a region with
    /// no decode-capable replica (colocated or decode-only): every
    /// handoff from that region would have nowhere to land.
    NoDecodeCapacity,
    /// [`ScenarioBuilder::roles`] is neither empty nor exactly as long
    /// as the fleet: a longer list's tail would apply to nothing, and a
    /// shorter one leaves replicas whose role nobody stated.
    RolesMismatchFleet,
    /// A population scale (`ScenarioBuilder::workload` and the scaled
    /// presets) that is not a positive finite number, or that scales a
    /// client count past `u32::MAX`: there is no population to build.
    InvalidScale,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::EmptyFleet => write!(
                f,
                "scenario has no replica a balancer can route to: set \
                 ScenarioBuilder::replicas with at least one Colocated or PrefillOnly replica"
            ),
            ScenarioError::NoTraffic => write!(
                f,
                "scenario has no traffic: set ScenarioBuilder::clients, ::workload, \
                 or ::traffic_source with a non-exhausted source"
            ),
            ScenarioError::NoDecodeCapacity => write!(
                f,
                "scenario has a region with prefill-only replicas and no decode-capable \
                 replica: add a Colocated or DecodeOnly peer there, or adjust \
                 ScenarioBuilder::roles"
            ),
            ScenarioError::RolesMismatchFleet => write!(
                f,
                "scenario's role list does not match its fleet: ScenarioBuilder::roles is \
                 indexed like ScenarioBuilder::replicas and is either empty (every replica \
                 Colocated) or exactly as long"
            ),
            ScenarioError::InvalidScale => write!(
                f,
                "scenario has a population scale that is not a positive finite number: \
                 pass ScenarioBuilder::workload (or the scaled preset) a scale in (0, ∞) \
                 small enough for the client counts to fit in 32 bits"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Fluent construction of a [`Scenario`] — the open counterpart of the
/// [`SystemKind`] presets. Custom systems (own deployment shape, own
/// [`PolicyFactory`], own [`TrafficSource`]) plug in here without
/// touching the fabric.
///
/// ```
/// use skywalker::fabric::{Deployment, Scenario};
/// use skywalker::scenarios::{balanced_fleet, Workload};
/// use skywalker::core::{PolicyKind, PushMode, RoutingConstraint};
///
/// let scenario = Scenario::builder()
///     .deployment(Deployment::PerRegion {
///         policy: PolicyKind::CacheAware,
///         push: PushMode::Pending,
///         forward: true,
///         tau: 4,
///         constraint: RoutingConstraint::Unrestricted,
///     })
///     .replicas(balanced_fleet())
///     .workload(Workload::Tot, 0.02, 7)
///     .constraint(RoutingConstraint::ContinentLocal)
///     .label("custom-tot")
///     .build()
///     .expect("fleet and workload are both set");
/// assert_eq!(scenario.label, "custom-tot");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScenarioBuilder {
    label: Option<String>,
    system: Option<SystemKind>,
    deployment: Option<Deployment>,
    policy_factory: Option<Arc<dyn PolicyFactory>>,
    replicas: Vec<ReplicaPlacement>,
    roles: Vec<ReplicaRole>,
    traffic: Option<Result<Box<dyn TrafficSource>, ScenarioError>>,
    fleet_plan: Option<Box<dyn FleetPlan>>,
    constraint: Option<RoutingConstraint>,
    engine: Option<EngineSpec>,
}

impl ScenarioBuilder {
    /// Starts from a preset: adopts the system's deployment shape and
    /// label (both still overridable by later calls).
    pub fn system(mut self, system: SystemKind) -> Self {
        self.system = Some(system);
        self
    }

    /// Sets the display label (defaults to the preset's label, then the
    /// policy factory's, then `"custom"`).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Sets the deployment shape explicitly.
    pub fn deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = Some(deployment);
        self
    }

    /// Installs a custom policy factory: every balancer's local and
    /// remote policies come from it instead of the deployment's built-in
    /// [`PolicyKind`].
    pub fn policy_factory(mut self, factory: impl PolicyFactory + 'static) -> Self {
        self.policy_factory = Some(Arc::new(factory));
        self
    }

    /// Sets the replica fleet.
    pub fn replicas(mut self, replicas: Vec<ReplicaPlacement>) -> Self {
        self.replicas = replicas;
        self
    }

    /// Assigns serving roles to the fleet, indexed like
    /// [`ScenarioBuilder::replicas`]; an empty list (the default) makes
    /// every replica [`ReplicaRole::Colocated`].
    /// [`ScenarioBuilder::build`] rejects assignments that leave a
    /// region's prefill-only replicas with no decode-capable target
    /// ([`ScenarioError::NoDecodeCapacity`]) and non-empty lists of any
    /// length but the fleet's ([`ScenarioError::RolesMismatchFleet`]).
    pub fn roles(mut self, roles: Vec<ReplicaRole>) -> Self {
        self.roles = roles;
        self
    }

    /// Sets the closed-loop client population directly, adapted through
    /// a [`ClientListSource`] (every client arrives at `t = 0`, in
    /// vector order). See also `ScenarioBuilder::workload` (defined
    /// alongside the workload generators) for the paper's populations by
    /// name, and [`ScenarioBuilder::traffic_source`] for streaming
    /// arrivals.
    pub fn clients(self, clients: Vec<ClientSpec>) -> Self {
        self.traffic_source(Box::new(ClientListSource::new(clients)))
    }

    /// Installs a streaming [`TrafficSource`]: the fabric pulls client
    /// arrivals from it as simulated time advances instead of ingesting
    /// a pre-materialized population. Any external implementation plugs
    /// in here — the workload counterpart of
    /// [`ScenarioBuilder::policy_factory`].
    pub fn traffic_source(self, source: Box<dyn TrafficSource>) -> Self {
        self.traffic(Ok(source))
    }

    /// Traffic a preset may have failed to size (an invalid population
    /// scale): the error waits for [`ScenarioBuilder::build`] to report.
    pub(crate) fn traffic(
        mut self,
        traffic: Result<Box<dyn TrafficSource>, ScenarioError>,
    ) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Installs a fleet control plane: the fabric polls the plan as
    /// simulated time advances and applies its joins, drains, crashes,
    /// and balancer flaps mid-run. Any external [`FleetPlan`]
    /// implementation plugs in here — the fleet counterpart of
    /// [`ScenarioBuilder::policy_factory`] and
    /// [`ScenarioBuilder::traffic_source`].
    pub fn fleet_plan(mut self, plan: Box<dyn FleetPlan>) -> Self {
        self.fleet_plan = Some(plan);
        self
    }

    /// Applies a regulatory routing constraint to the deployment. Only
    /// meaningful for per-region shapes (a centralized balancer never
    /// forwards, so there is nothing to constrain).
    pub fn constraint(mut self, constraint: RoutingConstraint) -> Self {
        self.constraint = Some(constraint);
        self
    }

    /// Installs a serving engine: every replica (initial fleet and
    /// mid-run joins alike) runs a clone of this batch policy + KV
    /// evictor pair. The engine counterpart of
    /// [`ScenarioBuilder::policy_factory`],
    /// [`ScenarioBuilder::traffic_source`], and
    /// [`ScenarioBuilder::fleet_plan`] — any external
    /// [`BatchPolicy`](skywalker_replica::BatchPolicy) or
    /// [`KvEvictor`](skywalker_replica::KvEvictor) implementation plugs
    /// in here.
    pub fn engine(mut self, engine: EngineSpec) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Assembles and validates the scenario. Defaults: SkyWalker's
    /// deployment shape if none was set, a static fleet, built-in
    /// policies.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyFleet`] without a balancer-visible replica;
    /// [`ScenarioError::NoTraffic`] without a client population or with
    /// an already-exhausted traffic source;
    /// [`ScenarioError::NoDecodeCapacity`] when a region's prefill-only
    /// replicas have no local decode target;
    /// [`ScenarioError::RolesMismatchFleet`] when the role list is
    /// neither empty nor as long as the fleet;
    /// [`ScenarioError::InvalidScale`] when the traffic
    /// was sized by a scale that is not a positive finite number.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        // No roles means the classical fleet: every replica Colocated,
        // so all of them routable and none handing off.
        let classical = self.roles.is_empty();
        if !classical && self.roles.len() != self.replicas.len() {
            return Err(ScenarioError::RolesMismatchFleet);
        }
        // Decode-only replicas are invisible to the balancers.
        let routable = (classical && !self.replicas.is_empty())
            || self.roles.iter().any(|r| *r != ReplicaRole::DecodeOnly);
        if !routable {
            return Err(ScenarioError::EmptyFleet);
        }
        let traffic = self.traffic.ok_or(ScenarioError::NoTraffic)??;
        if traffic.is_exhausted() {
            return Err(ScenarioError::NoTraffic);
        }
        let fleet = || self.replicas.iter().zip(&self.roles);
        for (p, _) in fleet().filter(|(_, role)| **role == ReplicaRole::PrefillOnly) {
            let has_decode = fleet().any(|(q, role)| q.region == p.region && role.decodes());
            if !has_decode {
                return Err(ScenarioError::NoDecodeCapacity);
            }
        }
        let mut deployment = self
            .deployment
            .or_else(|| self.system.map(|s| s.deployment()))
            .unwrap_or_else(|| SystemKind::SkyWalker.deployment());
        if let Some(c) = self.constraint {
            if let Deployment::PerRegion { constraint, .. } = &mut deployment {
                *constraint = c;
            }
        }
        let label = self
            .label
            .or_else(|| self.system.map(|s| s.label().to_string()))
            .or_else(|| self.policy_factory.as_ref().map(|f| f.label()))
            .unwrap_or_else(|| "custom".to_string());
        Ok(Scenario {
            label,
            system: self.system,
            deployment,
            policy_factory: self.policy_factory,
            replicas: self.replicas,
            roles: self.roles,
            traffic,
            fleet_plan: self.fleet_plan,
            engine: self.engine,
        })
    }
}
