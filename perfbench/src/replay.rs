//! The traced replay: the same generated requests, answered by calling
//! each layer's public functions directly, with a benchmark-owned span
//! around every call.
//!
//! The replay mirrors what the daemon's design executor does for a
//! request — characterize (`synthesize` + `fit_crosstalk_model`),
//! `PlanContext::build`, `plan_with_hook`, tally, route; the multi-die
//! path through `design_multi_chip`; the warm path through
//! `diff_inputs` + `repair_plan`; the plan cache for repeats — and adds
//! the `check_plan`/`check_routing` guards. Its `ReportSummary` must
//! match the daemon's response byte for byte, which both checks the
//! program and proves the spans timed the work the daemon really did.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Duration;

use youtiao::chip::spec::ChipSpec;
use youtiao::chip::{Chip, QubitId};
use youtiao::core::tdm::{brickwork_activity, ActivityProfile, DemuxLevel};
use youtiao::core::{PlanContext, PlannerConfig, WiringPlan, YoutiaoPlanner};
use youtiao::cost::WiringTally;
use youtiao::flow::{DesignError, DesignOptions, DesignReport, ReportSummary};
use youtiao::multi::{design_multi_chip, MultiDesignOptions};
use youtiao::noise::data::{synthesize, CrosstalkKind, SynthConfig};
use youtiao::noise::fit::{fit_crosstalk_model, FitConfig};
use youtiao::noise::CrosstalkModel;
use youtiao::repair::{diff_inputs, repair_plan, PlanInputs, RepairConfig};
use youtiao::route::channel::{channel_route, ChannelResult};
use youtiao::route::router::NetSpec;
use youtiao::serve::{perturbed_seed, DaemonOptions, DeltaSpec, DesignRequest};
use youtiao::xplore::{SweepRecord, SweepSpec};
use youtiao_obs::validate::{
    check_multi_plan, check_plan, check_plan_with_activity, check_routing,
};

use crate::spans::Spans;

/// A failed request as the daemon reports it: error kind and message.
pub type Failure = (String, String);

/// Counts taken at the layer boundaries while replaying.
#[derive(Default, Debug)]
pub struct Counters {
    pub requests: u64,
    pub fit_calls: u64,
    pub fit_samples: u64,
    pub context_builds: u64,
    pub route_calls: u64,
    pub route_failures: u64,
    pub violations: u64,
    pub sweep_points: u64,
    pub sweeps: u64,
}

pub struct Replayer {
    pub spans: Spans,
    pub counters: Counters,
    /// The plan cache as the daemon holds it: results by content key.
    cache: HashMap<u64, ReportSummary>,
    /// Resident base plans for the warm path, by base key. Like the
    /// daemon's repair store, only delta requests populate it.
    store: HashMap<u64, Rc<DesignReport>>,
    max_retries: u32,
}

fn failure(error: DesignError) -> Failure {
    let kind = match &error {
        DesignError::Plan(_) => "Plan",
        DesignError::Route(_) => "Route",
        DesignError::Validation(_) => "Validation",
        _ => "Internal",
    };
    (kind.to_string(), error.to_string())
}

fn invalid(message: impl Into<String>) -> Failure {
    ("InvalidRequest".to_string(), message.into())
}

/// The planner's stage events that are disjoint top-level sub-stages of
/// `plan_with_hook`, as span names.
fn stage_span(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "fdm_grouping" => "core.plan.fdm_grouping",
        "tdm_grouping" => "core.plan.tdm_grouping",
        "refine" => "core.plan.refine",
        "partition" => "core.plan.partition",
        "freq_alloc" => "core.plan.freq_alloc",
        "readout" => "core.plan.readout",
        _ => return None,
    })
}

/// Net list for a plan, as the design flow routes it: chained FDM
/// lines, chained TDM groups, readout feedlines.
fn plan_nets(chip: &Chip, plan: &WiringPlan) -> Vec<NetSpec> {
    let qubit_pos = |q: QubitId| {
        chip.qubit(q)
            .expect("plan qubits are chip qubits")
            .position()
    };
    let mut nets = Vec::new();
    for (i, line) in plan.fdm_lines().iter().enumerate() {
        nets.push(NetSpec::chain(
            format!("xy{i}"),
            line.qubits().iter().map(|&q| qubit_pos(q)).collect(),
        ));
    }
    for (i, group) in plan.tdm_groups().iter().enumerate() {
        nets.push(NetSpec::chain(
            format!("z{i}"),
            group
                .devices()
                .iter()
                .map(|&d| chip.device_position(d))
                .collect(),
        ));
    }
    for (i, line) in plan.readout_lines().iter().enumerate() {
        nets.push(NetSpec::chain(
            format!("ro{i}"),
            line.iter().map(|&q| qubit_pos(q)).collect(),
        ));
    }
    nets
}

/// The delta'd chip: the base chip minus every coupler named dead.
fn delta_chip(chip: &Chip, delta: &DeltaSpec) -> Result<Chip, Failure> {
    let dead = delta.dead_couplers.as_deref().unwrap_or_default();
    if dead.is_empty() {
        return Ok(chip.clone());
    }
    let mut spec = ChipSpec::from_chip(chip);
    for &(a, b) in dead {
        let key = (a.min(b), a.max(b));
        let before = spec.couplers.len();
        spec.couplers.retain(|&(x, y)| (x.min(y), x.max(y)) != key);
        if spec.couplers.len() == before {
            return Err(invalid(format!("dead coupler ({a}, {b}) is not a coupler")));
        }
    }
    spec.to_chip().map_err(|e| invalid(e.to_string()))
}

impl Replayer {
    pub fn new(traced: bool) -> Self {
        Replayer {
            spans: Spans::new(traced),
            counters: Counters::default(),
            cache: HashMap::new(),
            store: HashMap::new(),
            max_retries: DaemonOptions::default().max_retries,
        }
    }

    /// Replays one design request under a `request` root span on track
    /// `track`, returning what the daemon should have answered.
    pub fn request(
        &mut self,
        track: usize,
        label: String,
        request: &DesignRequest,
    ) -> Result<ReportSummary, Failure> {
        self.spans.track(track, label);
        let root = self.spans.open("request");
        let out = self.serve(request);
        self.spans.close(root);
        if self.spans.on {
            self.counters.requests += 1;
        }
        out
    }

    /// The serving layer: a plan-cache lookup by content key, then the
    /// design or repair path on a miss.
    fn serve(&mut self, request: &DesignRequest) -> Result<ReportSummary, Failure> {
        let key = self.spans.time("serve.lookup", || request.cache_key());
        let key = key.map_err(|e| invalid(e.to_string()))?;
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit.clone());
        }
        let out = if request.chip.is_multi() {
            self.with_retries(|me, attempt| me.multi(request, attempt))
        } else {
            let chip = request.chip.build().map_err(|e| invalid(e.to_string()))?;
            match request.effective_delta() {
                Some(delta) => self.repair(request, delta, &chip),
                None => self.with_retries(|me, attempt| {
                    me.design(&chip, request, perturbed_seed(request.seed(), attempt))
                        .map(|report| report.summary())
                }),
            }
        };
        if let Ok(summary) = &out {
            self.cache.insert(key, summary.clone());
        }
        out.map_err(failure)
    }

    /// The worker pool's retry policy: transient failures rerun with
    /// the attempt number (and so a perturbed seed), up to the daemon's
    /// default retry budget.
    fn with_retries(
        &mut self,
        mut attempt_fn: impl FnMut(&mut Self, u32) -> Result<ReportSummary, DesignError>,
    ) -> Result<ReportSummary, DesignError> {
        let mut attempt = 0;
        loop {
            match attempt_fn(self, attempt) {
                Err(e) if e.is_transient() && attempt < self.max_retries => attempt += 1,
                out => return out,
            }
        }
    }

    fn characterize(&mut self, chip: &Chip, seed: u64) -> CrosstalkModel {
        let samples = self.spans.time("noise.synthesize", || {
            synthesize(chip, CrosstalkKind::Xy, &SynthConfig::xy(), seed)
        });
        let model = self.spans.time("noise.fit", || {
            fit_crosstalk_model(&samples, &FitConfig::paper())
        });
        if self.spans.on {
            self.counters.fit_calls += 1;
            self.counters.fit_samples += samples.len() as u64;
        }
        model.expect("synthesized data always fits")
    }

    fn context(
        &mut self,
        chip: &Chip,
        model: Option<&CrosstalkModel>,
        config: &PlannerConfig,
    ) -> PlanContext {
        if self.spans.on {
            self.counters.context_builds += 1;
        }
        self.spans.time("core.context", || {
            PlanContext::build(chip, model, config.weights)
        })
    }

    /// `plan_with_hook` in a `core.plan` span, with the hook's top-level
    /// sub-stages laid out as its children in the order they ran.
    fn plan(
        &mut self,
        chip: &Chip,
        model: Option<&CrosstalkModel>,
        config: &PlannerConfig,
        context: &PlanContext,
    ) -> Result<WiringPlan, DesignError> {
        let mut stages: Vec<(&'static str, Duration)> = Vec::new();
        let id = self.spans.open("core.plan");
        let mut planner = YoutiaoPlanner::new(chip)
            .with_config(config.clone())
            .with_context(context);
        if let Some(model) = model {
            planner = planner.with_crosstalk_model(model);
        }
        let plan = planner.plan_with_hook(&mut |stage, elapsed| stages.push((stage, elapsed)));
        self.spans.close(id);
        if let Some(id) = id {
            let mut cursor = self.spans.list[id].start_us;
            for (stage, elapsed) in stages {
                if let Some(name) = stage_span(stage) {
                    let dur = elapsed.as_secs_f64() * 1e6;
                    self.spans.push_child(id, name, cursor, dur);
                    cursor += dur;
                }
            }
        }
        Ok(plan?)
    }

    /// One attempt of the design flow for a single-die chip.
    fn design(
        &mut self,
        chip: &Chip,
        request: &DesignRequest,
        seed: u64,
    ) -> Result<DesignReport, DesignError> {
        let config = request.planner_config();
        let model = self.characterize(chip, seed);
        let context = self.context(chip, Some(&model), &config);
        let plan = self.plan(chip, Some(&model), &config, &context)?;
        self.complete(
            chip,
            model,
            context,
            plan,
            &config,
            request.wants_routing(),
            None,
        )
    }

    /// The back half of the flow: tally, route, and the invariant guards.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &mut self,
        chip: &Chip,
        model: CrosstalkModel,
        context: PlanContext,
        plan: WiringPlan,
        config: &PlannerConfig,
        routing: bool,
        activity: Option<&ActivityProfile>,
    ) -> Result<DesignReport, DesignError> {
        let (dedicated, multiplexed) = self.spans.time("cost.tally", || {
            (WiringTally::google(chip), WiringTally::youtiao(&plan))
        });
        let routing: Option<ChannelResult> = if routing {
            let route_config = DesignOptions::default()
                .routing
                .expect("the default flow routes");
            let routed = self.spans.time("route.channel", || {
                channel_route(chip, &plan_nets(chip, &plan), &route_config)
            });
            if self.spans.on {
                self.counters.route_calls += 1;
                self.counters.route_failures += u64::from(routed.is_err());
            }
            Some(routed?)
        } else {
            None
        };
        let report = self.spans.time("obs.validate", || {
            let mut report = match activity {
                Some(activity) => check_plan_with_activity(chip, &plan, config, activity),
                None => check_plan(chip, &plan, config),
            };
            if let Some(result) = &routing {
                report.merge(check_routing(&plan, result));
            }
            report
        });
        self.counters.violations += report.len() as u64;
        Ok(DesignReport {
            model,
            context,
            plan,
            dedicated,
            multiplexed,
            routing,
        })
    }

    /// One attempt of the multi-die flow.
    fn multi(
        &mut self,
        request: &DesignRequest,
        attempt: u32,
    ) -> Result<ReportSummary, DesignError> {
        let mdc = request
            .chip
            .build_multi()
            .expect("generated chiplet requests resolve");
        let options = MultiDesignOptions {
            planner: request.planner_config(),
            seed: perturbed_seed(request.seed(), attempt),
            use_model: true,
            budget: request
                .coax_budget
                .map(|coax_lines| youtiao::core::CryostatBudget { coax_lines }),
            validate: false,
        };
        let report = self
            .spans
            .time("multi.design", || design_multi_chip(&mdc, &options))?;
        let violations = self.spans.time("obs.validate", || {
            let allowances = report
                .outcome
                .partition
                .as_ref()
                .map(|p| p.allowances.as_slice());
            check_multi_plan(&mdc, &report.outcome.plans(), &options.planner, allowances).len()
        });
        self.counters.violations += violations as u64;
        Ok(report.summary(&mdc))
    }

    /// The warm path: resolve the base (resident, or designed inline
    /// with the request's own seed), materialize the delta'd inputs,
    /// diff, repair, and finish the flow over the repaired plan.
    fn repair(
        &mut self,
        request: &DesignRequest,
        delta: &DeltaSpec,
        chip: &Chip,
    ) -> Result<ReportSummary, DesignError> {
        let base_key = request.base_key().expect("generated requests resolve");
        let base = match self.store.get(&base_key) {
            Some(base) => Rc::clone(base),
            None => {
                let report = Rc::new(self.design(chip, request, request.seed())?);
                self.store.insert(base_key, Rc::clone(&report));
                report
            }
        };
        let new_chip = delta_chip(chip, delta).expect("generated dead couplers exist");
        let mut new_xtalk = base.context.crosstalk().clone();
        for entry in delta.drift.iter().flatten() {
            new_xtalk.set(entry.a.into(), entry.b.into(), entry.xtalk);
        }
        let base_activity = brickwork_activity(chip);
        let new_activity = brickwork_activity(&new_chip);
        let old_inputs = PlanInputs {
            chip,
            xtalk: base.context.crosstalk(),
            activity: &base_activity,
        };
        let new_inputs = PlanInputs {
            chip: &new_chip,
            xtalk: &new_xtalk,
            activity: &new_activity,
        };
        let changes = self
            .spans
            .time("repair.diff", || diff_inputs(&old_inputs, &new_inputs));
        let config = request.planner_config();
        let mut planner = config.clone();
        planner.weights = base.context.weights();
        let repaired = self.spans.time("repair.plan", || {
            repair_plan(
                &base.plan,
                &base.context,
                &new_inputs,
                &changes,
                &planner,
                &RepairConfig::default(),
            )
        })?;
        let report = self.complete(
            &new_chip,
            base.model.clone(),
            repaired.context,
            repaired.plan,
            &config,
            request.wants_routing(),
            Some(&new_activity),
        )?;
        Ok(report.summary())
    }

    /// Replays one sweep: a `sweep` root on track `track`, the per-chip
    /// contexts, then one `point` span per record, each planned with the
    /// record's own axis values and checked against the record.
    /// Returns the number of records that did not match.
    pub fn sweep(&mut self, track: usize, spec: &SweepSpec, records: &[SweepRecord]) -> usize {
        self.spans.track(track, format!("sweep {track}"));
        let root = self.spans.open("sweep");
        let fallback = PlannerConfig::default();
        let mut chips: Vec<(Chip, PlanContext)> = Vec::new();
        for request in &spec.chips {
            let chip = request.build().expect("sweep chips resolve");
            let context = self.context(&chip, None, &fallback);
            chips.push((chip, context));
        }
        let mut mismatches = 0;
        for record in records {
            let point = self.spans.open("point");
            let matched = self.point(&chips, record);
            self.spans.close(point);
            mismatches += usize::from(!matched);
            if self.spans.on {
                self.counters.sweep_points += 1;
            }
        }
        self.spans.close(root);
        if self.spans.on {
            self.counters.sweeps += 1;
        }
        mismatches
    }

    /// Plans one sweep point from its record's axis values and compares
    /// every planned figure with the record.
    fn point(&mut self, chips: &[(Chip, PlanContext)], record: &SweepRecord) -> bool {
        let Some((chip, context)) = chips.iter().find(|(chip, _)| chip.name() == record.chip)
        else {
            return false;
        };
        let mut config = PlannerConfig::default();
        config.tdm.theta = record.theta;
        config.tdm.max_shared_slots = record.max_shared_slots;
        config.tdm.allow_one_to_eight = record.one_to_eight;
        config.fdm_capacity = record.fdm_capacity;
        config.readout_capacity = record.readout_capacity;
        let Ok(plan) = self.plan(chip, None, &config, context) else {
            return false;
        };
        let (dedicated, tally) = self.spans.time("cost.tally", || {
            (WiringTally::google(chip), WiringTally::youtiao(&plan))
        });
        let violations = self
            .spans
            .time("obs.validate", || check_plan(chip, &plan, &config).len());
        self.counters.violations += violations as u64;
        let (mut deep, mut one_to_two, mut direct) = (0, 0, 0);
        for group in plan.tdm_groups() {
            match group.level() {
                DemuxLevel::OneToEight | DemuxLevel::OneToFour => deep += group.len(),
                DemuxLevel::OneToTwo => one_to_two += group.len(),
                _ => direct += group.len(),
            }
        }
        record.xy_lines == Some(tally.xy_lines)
            && record.z_lines == Some(tally.z_lines)
            && record.readout_feedlines == Some(tally.readout_feedlines)
            && record.coax_lines == Some(tally.coax_lines())
            && record.cost_kusd == Some(tally.cost_kusd())
            && record.dedicated_coax == Some(dedicated.coax_lines())
            && record.dedicated_cost_kusd == Some(dedicated.cost_kusd())
            && record.demux_deep == Some(deep)
            && record.demux_one_to_two == Some(one_to_two)
            && record.demux_direct == Some(direct)
    }
}
