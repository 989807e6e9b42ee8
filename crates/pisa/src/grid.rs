//! The 2-D ALU grid: specification, configuration, and concrete execution.
//!
//! A [`GridSpec`] fixes the hardware shape (stages × slots, ALU types); a
//! [`PipelineConfig`] fills in every hole of Table 1 of the paper; a
//! [`Pipeline`] executes the configured grid one packet at a time at a
//! chosen bit width.

use crate::stateful::StatefulAluSpec;
use crate::stateless::{eval_alu, StatelessAluSpec};

/// Shape and ALU types of a simulated switch.
#[derive(Clone, PartialEq, Debug)]
pub struct GridSpec {
    /// Number of pipeline stages (the x axis of the grid).
    pub stages: usize,
    /// Slots per stage: the number of PHV containers, which is also the
    /// number of stateless ALUs and of stateful ALUs per stage (the y
    /// axis). The paper's Figure 2 shows a 2-by-2 grid.
    pub slots: usize,
    /// The stateless ALU hardware.
    pub stateless: StatelessAluSpec,
    /// The stateful ALU hardware (one template for the whole, homogeneous
    /// grid).
    pub stateful: StatefulAluSpec,
}

impl GridSpec {
    /// A grid with the paper's default ALUs (full Banzai stateless ALU).
    pub fn new(stages: usize, slots: usize, stateful: StatefulAluSpec, imm_bits: u8) -> Self {
        GridSpec {
            stages,
            slots,
            stateless: StatelessAluSpec::banzai(imm_bits),
            stateful,
        }
    }
}

/// Configuration of one stateless ALU instance (Table 1: opcode, input mux
/// controls, immediate operand).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatelessConfig {
    /// Opcode, encoded as an index into [`StatelessAluSpec::ops`]
    /// (out-of-range clamps to the last opcode, like the hardware mux).
    pub opcode: u64,
    /// Immediate operand.
    pub imm: u64,
    /// First input mux: which container feeds operand `a`.
    pub mux_a: usize,
    /// Second input mux: which container feeds operand `b`.
    pub mux_b: usize,
}

/// Configuration of one stateful ALU instance (Table 1: state-variable
/// allocation, input mux controls, template holes).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StatefulConfig {
    /// Which program state variable this ALU holds, if any. In canonical
    /// allocation, slot `i` may only hold state variable `i` (Figure 4 of
    /// the paper); the executor does not require canonicity.
    pub state_var: Option<usize>,
    /// Input mux per packet operand: which container feeds it.
    pub pkt_muxes: Vec<usize>,
    /// Values of the template's holes, in template order.
    pub holes: Vec<u64>,
}

/// Output-mux selection for one container (Table 1: where a container's
/// next value comes from).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutMuxSel {
    /// The container's own stateless ALU output ("destination").
    Stateless,
    /// The output of stateful ALU `j` of this stage.
    Stateful(usize),
}

/// Configuration of one pipeline stage.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageConfig {
    /// One stateless ALU per slot.
    pub stateless: Vec<StatelessConfig>,
    /// One stateful ALU per slot.
    pub stateful: Vec<StatefulConfig>,
    /// One output mux per container.
    pub out_mux: Vec<OutMuxSel>,
}

/// A complete hardware configuration for a [`GridSpec`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PipelineConfig {
    /// Per-stage configuration, length = `GridSpec::stages`.
    pub stages: Vec<StageConfig>,
}

impl PipelineConfig {
    /// Validate shape and mux ranges against a grid and a number of program
    /// state variables. Returns the first problem found.
    pub fn validate(&self, spec: &GridSpec, num_states: usize) -> Result<(), String> {
        if self.stages.len() != spec.stages {
            return Err(format!(
                "config has {} stages, grid has {}",
                self.stages.len(),
                spec.stages
            ));
        }
        let mut seen_state = vec![false; num_states];
        for (si, st) in self.stages.iter().enumerate() {
            if st.stateless.len() != spec.slots
                || st.stateful.len() != spec.slots
                || st.out_mux.len() != spec.slots
            {
                return Err(format!("stage {si} has wrong slot count"));
            }
            for (j, sl) in st.stateless.iter().enumerate() {
                if sl.mux_a >= spec.slots || sl.mux_b >= spec.slots {
                    return Err(format!("stage {si} stateless {j}: mux out of range"));
                }
            }
            for (j, sf) in st.stateful.iter().enumerate() {
                if sf.pkt_muxes.len() != spec.stateful.num_pkt_operands {
                    return Err(format!(
                        "stage {si} stateful {j}: expected {} pkt muxes",
                        spec.stateful.num_pkt_operands
                    ));
                }
                if sf.pkt_muxes.iter().any(|&m| m >= spec.slots) {
                    return Err(format!("stage {si} stateful {j}: pkt mux out of range"));
                }
                if sf.holes.len() != spec.stateful.holes.len() {
                    return Err(format!(
                        "stage {si} stateful {j}: expected {} holes",
                        spec.stateful.holes.len()
                    ));
                }
                if let Some(v) = sf.state_var {
                    if v >= num_states {
                        return Err(format!(
                            "stage {si} stateful {j}: state var {v} out of range"
                        ));
                    }
                    if seen_state[v] {
                        return Err(format!("state var {v} allocated twice"));
                    }
                    seen_state[v] = true;
                }
            }
            for (j, om) in st.out_mux.iter().enumerate() {
                if let OutMuxSel::Stateful(k) = om {
                    if *k >= spec.slots {
                        return Err(format!("stage {si} out mux {j} out of range"));
                    }
                }
            }
        }
        for (v, seen) in seen_state.iter().enumerate() {
            if !seen {
                return Err(format!("state var {v} is not allocated to any ALU"));
            }
        }
        Ok(())
    }
}

/// Resource usage extracted from a configuration, the metric of the paper's
/// Figure 5.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResourceUsage {
    /// Number of pipeline stages that perform useful work.
    pub stages_used: usize,
    /// Maximum number of *used* ALUs in any single stage.
    pub max_alus_per_stage: usize,
    /// Total used ALUs across the pipeline.
    pub total_alus: usize,
}

/// A configured pipeline ready to process packets.
#[derive(Clone, Debug)]
pub struct Pipeline {
    spec: GridSpec,
    config: PipelineConfig,
    /// Live state registers: one per program state variable.
    states: Vec<u64>,
    width: u8,
}

impl Pipeline {
    /// Build a pipeline. `num_states` is the number of program state
    /// variables; registers start at zero (use [`Pipeline::set_state`] to
    /// seed them).
    ///
    /// # Errors
    /// If `width` is outside `1..=64` (it reaches here straight from
    /// untrusted CLI/request input) or the configuration does not
    /// validate against the grid.
    pub fn new(
        spec: GridSpec,
        config: PipelineConfig,
        num_states: usize,
        width: u8,
    ) -> Result<Pipeline, String> {
        if !(1..=64).contains(&width) {
            return Err(format!("word width {width} out of range 1..=64"));
        }
        config.validate(&spec, num_states)?;
        Ok(Pipeline {
            spec,
            config,
            states: vec![0; num_states],
            width,
        })
    }

    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Current value of a state register.
    pub fn state(&self, v: usize) -> u64 {
        self.states[v]
    }

    /// Overwrite a state register.
    pub fn set_state(&mut self, v: usize, value: u64) {
        self.states[v] = value & self.mask();
    }

    /// The grid specification.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The hardware configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Process one packet: `phv_in` are the container values entering stage
    /// 0 (length = slots); returns the container values exiting the last
    /// stage. State registers update in place (visible to the next packet —
    /// the grid runs at one packet per clock).
    pub fn exec(&mut self, phv_in: &[u64]) -> Vec<u64> {
        assert_eq!(phv_in.len(), self.spec.slots, "PHV width mismatch");
        let m = self.mask();
        let mut cur: Vec<u64> = phv_in.iter().map(|v| v & m).collect();
        for st in &self.config.stages {
            // Stateless ALUs ("destinations").
            let dest: Vec<u64> = st
                .stateless
                .iter()
                .map(|sl| {
                    eval_alu(
                        &self.spec.stateless,
                        sl.opcode,
                        cur[sl.mux_a],
                        cur[sl.mux_b],
                        sl.imm,
                        m,
                    )
                })
                .collect();
            // Stateful ALUs.
            let mut salu_out = vec![0u64; self.spec.slots];
            for (j, sf) in st.stateful.iter().enumerate() {
                if let Some(v) = sf.state_var {
                    let pkts: Vec<u64> = sf.pkt_muxes.iter().map(|&x| cur[x]).collect();
                    let (ns, out) = self.spec.stateful.eval(&sf.holes, self.states[v], &pkts, m);
                    self.states[v] = ns;
                    salu_out[j] = out;
                }
            }
            // Output muxes.
            cur = st
                .out_mux
                .iter()
                .enumerate()
                .map(|(j, om)| match om {
                    OutMuxSel::Stateless => dest[j],
                    OutMuxSel::Stateful(k) => salu_out[*k],
                })
                .collect();
        }
        cur
    }

    /// Resource usage of this configuration (Figure 5 metrics).
    ///
    /// A stateful ALU is *used* when it holds a state variable. A stateless
    /// ALU is *used* when its container's output mux selects it **and** it
    /// is not a pure pass-through of its own container (`PassA` with
    /// `mux_a` pointing at itself), which is how an untouched field rides
    /// through a stage.
    pub fn resources(&self) -> ResourceUsage {
        resources_of(&self.spec, &self.config)
    }
}

/// See [`Pipeline::resources`].
pub fn resources_of(spec: &GridSpec, config: &PipelineConfig) -> ResourceUsage {
    let mut stages_used = 0;
    let mut max_alus = 0;
    let mut total = 0;
    for (si, st) in config.stages.iter().enumerate() {
        let mut used_here = 0;
        for sf in &st.stateful {
            if sf.state_var.is_some() {
                used_here += 1;
            }
        }
        for (j, om) in st.out_mux.iter().enumerate() {
            if *om == OutMuxSel::Stateless {
                let sl = &st.stateless[j];
                let op = crate::stateless::select_concrete(sl.opcode, &spec.stateless.ops);
                let identity = op == crate::stateless::StatelessOp::PassA && sl.mux_a == j;
                if !identity {
                    used_here += 1;
                }
            }
        }
        if used_here > 0 {
            stages_used = si + 1;
            max_alus = max_alus.max(used_here);
            total += used_here;
        }
    }
    ResourceUsage {
        stages_used,
        max_alus_per_stage: max_alus,
        total_alus: total,
    }
}

// ---------------------------------------------------------------------------
// JSON (de)serialization. Hand-rolled on chipmunk_trace::json; the wire
// format matches what serde used to emit so existing result files parse.
// ---------------------------------------------------------------------------

use chipmunk_trace::json::Json;

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, String> {
    Ok(get_u64(v, key)? as usize)
}

fn get_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field `{key}`"))
}

impl StatelessConfig {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("opcode", Json::from(self.opcode)),
            ("imm", Json::from(self.imm)),
            ("mux_a", Json::from(self.mux_a)),
            ("mux_b", Json::from(self.mux_b)),
        ])
    }

    /// Deserialize from JSON.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(StatelessConfig {
            opcode: get_u64(v, "opcode")?,
            imm: get_u64(v, "imm")?,
            mux_a: get_usize(v, "mux_a")?,
            mux_b: get_usize(v, "mux_b")?,
        })
    }
}

impl StatefulConfig {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "state_var",
                match self.state_var {
                    Some(v) => Json::from(v),
                    None => Json::Null,
                },
            ),
            (
                "pkt_muxes",
                Json::Arr(self.pkt_muxes.iter().map(|&m| Json::from(m)).collect()),
            ),
            (
                "holes",
                Json::Arr(self.holes.iter().map(|&h| Json::from(h)).collect()),
            ),
        ])
    }

    /// Deserialize from JSON.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let state_var = match v.get("state_var") {
            None | Some(Json::Null) => None,
            Some(sv) => Some(
                sv.as_u64()
                    .ok_or_else(|| "non-integer `state_var`".to_string())? as usize,
            ),
        };
        let pkt_muxes = get_arr(v, "pkt_muxes")?
            .iter()
            .map(|m| m.as_u64().map(|x| x as usize))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "non-integer pkt mux".to_string())?;
        let holes = get_arr(v, "holes")?
            .iter()
            .map(Json::as_u64)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "non-integer hole".to_string())?;
        Ok(StatefulConfig {
            state_var,
            pkt_muxes,
            holes,
        })
    }
}

impl OutMuxSel {
    /// Serialize to JSON (externally tagged, like serde's enum encoding).
    pub fn to_json(&self) -> Json {
        match self {
            OutMuxSel::Stateless => Json::from("Stateless"),
            OutMuxSel::Stateful(k) => Json::obj([("Stateful", Json::from(*k))]),
        }
    }

    /// Deserialize from JSON.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        if v.as_str() == Some("Stateless") {
            return Ok(OutMuxSel::Stateless);
        }
        if let Some(k) = v.get("Stateful").and_then(Json::as_u64) {
            return Ok(OutMuxSel::Stateful(k as usize));
        }
        Err(format!("invalid out-mux selection: {v}"))
    }
}

impl StageConfig {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "stateless",
                Json::Arr(self.stateless.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "stateful",
                Json::Arr(self.stateful.iter().map(|s| s.to_json()).collect()),
            ),
            (
                "out_mux",
                Json::Arr(self.out_mux.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }

    /// Deserialize from JSON.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(StageConfig {
            stateless: get_arr(v, "stateless")?
                .iter()
                .map(StatelessConfig::from_json)
                .collect::<Result<_, _>>()?,
            stateful: get_arr(v, "stateful")?
                .iter()
                .map(StatefulConfig::from_json)
                .collect::<Result<_, _>>()?,
            out_mux: get_arr(v, "out_mux")?
                .iter()
                .map(OutMuxSel::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl PipelineConfig {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "stages",
            Json::Arr(self.stages.iter().map(|s| s.to_json()).collect()),
        )])
    }

    /// Deserialize from JSON.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(PipelineConfig {
            stages: get_arr(v, "stages")?
                .iter()
                .map(StageConfig::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// Parse a configuration from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }
}

impl ResourceUsage {
    /// Serialize to JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("stages_used", Json::from(self.stages_used)),
            ("max_alus_per_stage", Json::from(self.max_alus_per_stage)),
            ("total_alus", Json::from(self.total_alus)),
        ])
    }

    /// Deserialize from JSON.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ResourceUsage {
            stages_used: get_usize(v, "stages_used")?,
            max_alus_per_stage: get_usize(v, "max_alus_per_stage")?,
            total_alus: get_usize(v, "total_alus")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stateful::library;
    use crate::stateless::StatelessOp;

    fn passthrough_stage(slots: usize, spec: &GridSpec) -> StageConfig {
        let pass_code = spec
            .stateless
            .ops
            .iter()
            .position(|&o| o == StatelessOp::PassA)
            .expect("PassA available") as u64;
        StageConfig {
            stateless: (0..slots)
                .map(|j| StatelessConfig {
                    opcode: pass_code,
                    imm: 0,
                    mux_a: j,
                    mux_b: j,
                })
                .collect(),
            stateful: (0..slots)
                .map(|_| StatefulConfig {
                    state_var: None,
                    pkt_muxes: vec![0; spec.stateful.num_pkt_operands],
                    holes: vec![0; spec.stateful.holes.len()],
                })
                .collect(),
            out_mux: vec![OutMuxSel::Stateless; slots],
        }
    }

    fn grid(stages: usize, slots: usize) -> GridSpec {
        GridSpec::new(stages, slots, library::raw(2), 2)
    }

    #[test]
    fn out_of_range_width_is_a_typed_error_not_a_panic() {
        // `width` arrives straight from `chipmunkc run --width N`; a bad
        // value must surface as Err, never an assert.
        for bad in [0u8, 65, 255] {
            let spec = grid(1, 1);
            let config = PipelineConfig {
                stages: vec![passthrough_stage(1, &spec)],
            };
            let err = Pipeline::new(spec, config, 0, bad).unwrap_err();
            assert!(err.contains("out of range"), "width {bad}: {err}");
        }
    }

    #[test]
    fn passthrough_pipeline_is_identity() {
        let spec = grid(3, 2);
        let config = PipelineConfig {
            stages: (0..3).map(|_| passthrough_stage(2, &spec)).collect(),
        };
        let mut p = Pipeline::new(spec, config, 0, 8).unwrap();
        assert_eq!(p.exec(&[42, 7]), vec![42, 7]);
        assert_eq!(
            p.resources(),
            ResourceUsage {
                stages_used: 0,
                max_alus_per_stage: 0,
                total_alus: 0
            }
        );
    }

    #[test]
    fn stateless_add_then_pass() {
        let spec = grid(2, 2);
        let add_code = spec
            .stateless
            .ops
            .iter()
            .position(|&o| o == StatelessOp::Add)
            .unwrap() as u64;
        let mut stage0 = passthrough_stage(2, &spec);
        // Container 0 of stage 0 computes c0 + c1.
        stage0.stateless[0] = StatelessConfig {
            opcode: add_code,
            imm: 0,
            mux_a: 0,
            mux_b: 1,
        };
        let stage1 = passthrough_stage(2, &spec);
        let config = PipelineConfig {
            stages: vec![stage0, stage1],
        };
        let mut p = Pipeline::new(spec, config, 0, 8).unwrap();
        assert_eq!(p.exec(&[3, 4]), vec![7, 4]);
        let r = p.resources();
        assert_eq!(r.stages_used, 1);
        assert_eq!(r.max_alus_per_stage, 1);
        assert_eq!(r.total_alus, 1);
    }

    #[test]
    fn stateful_counter_accumulates_across_packets() {
        let spec = grid(1, 2);
        let mut stage0 = passthrough_stage(2, &spec);
        // Stateful ALU 0 holds state var 0; raw template mode 0 =
        // state + pkt0; pkt mux selects container 1. Output (old state)
        // routed to container 0.
        stage0.stateful[0] = StatefulConfig {
            state_var: Some(0),
            pkt_muxes: vec![1],
            holes: vec![0, 0, 0, 0], // upd: state+pkt; out: old state
        };
        stage0.out_mux[0] = OutMuxSel::Stateful(0);
        let config = PipelineConfig {
            stages: vec![stage0],
        };
        let mut p = Pipeline::new(spec, config, 1, 8).unwrap();
        assert_eq!(p.exec(&[0, 5]), vec![0, 5]); // emits old state 0
        assert_eq!(p.state(0), 5);
        assert_eq!(p.exec(&[0, 3]), vec![5, 3]); // emits old state 5
        assert_eq!(p.state(0), 8);
        let r = p.resources();
        assert_eq!(r.stages_used, 1);
        // stateful ALU + the pass-through on container 1 is identity (not
        // counted); container 0's omux selects the stateful ALU.
        assert_eq!(r.max_alus_per_stage, 1);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let spec = grid(1, 2);
        let good = PipelineConfig {
            stages: vec![passthrough_stage(2, &spec)],
        };
        assert!(good.validate(&spec, 0).is_ok());

        let mut wrong_stages = good.clone();
        wrong_stages.stages.push(passthrough_stage(2, &spec));
        assert!(wrong_stages.validate(&spec, 0).is_err());

        let mut bad_mux = good.clone();
        bad_mux.stages[0].stateless[0].mux_a = 9;
        assert!(bad_mux.validate(&spec, 0).is_err());

        // State var never allocated.
        assert!(good.validate(&spec, 1).is_err());

        let mut dup = good.clone();
        dup.stages[0].stateful[0].state_var = Some(0);
        dup.stages[0].stateful[1].state_var = Some(0);
        assert!(dup.validate(&spec, 1).is_err());

        let mut bad_holes = good;
        bad_holes.stages[0].stateful[0].state_var = Some(0);
        bad_holes.stages[0].stateful[0].holes = vec![0];
        assert!(bad_holes.validate(&spec, 1).is_err());
    }

    #[test]
    fn width_masks_values() {
        let spec = grid(1, 1);
        let config = PipelineConfig {
            stages: vec![passthrough_stage(1, &spec)],
        };
        let mut p = Pipeline::new(spec, config, 0, 4).unwrap();
        assert_eq!(p.exec(&[0xff]), vec![0xf]);
    }

    #[test]
    fn out_mux_can_broadcast_stateful_output() {
        let spec = grid(1, 2);
        let mut stage0 = passthrough_stage(2, &spec);
        stage0.stateful[1] = StatefulConfig {
            state_var: Some(0),
            pkt_muxes: vec![0],
            holes: vec![1, 0, 0, 0], // upd mode 1: state = pkt0; out: old
        };
        stage0.out_mux[0] = OutMuxSel::Stateful(1);
        stage0.out_mux[1] = OutMuxSel::Stateful(1);
        let config = PipelineConfig {
            stages: vec![stage0],
        };
        let mut p = Pipeline::new(spec, config, 1, 8).unwrap();
        p.set_state(0, 99);
        assert_eq!(p.exec(&[55, 0]), vec![99, 99]);
        assert_eq!(p.state(0), 55);
    }
}
