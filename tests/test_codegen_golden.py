"""Golden C listings: the exact ``c_source`` of the paper's step functions.

The listings are rendered from the scheduled :class:`StepProgram`
(:func:`repro.codegen.sequential.render_c`).  These strings pin them byte
for byte: statement order, then the output writes, then the delay-register
updates, for the buffer and filter of Section 3 and the master-clocked
producer/consumer composition of Section 5.1 (the paper's ``main_iterate``).
"""

from __future__ import annotations

import pytest

from repro import Design
from repro.codegen.sequential import build_step_program, render_c
from repro.codegen.specialized import compile_process
from repro.lang.normalize import normalize
from repro.library.basic import buffer_process, filter_process
from repro.properties.compilable import ProcessAnalysis

BUFFER = (
    'bool buffer_iterate() {\n'
    '  C_buffer_m = TRUE;\n'
    '  C_buffer_r = C_buffer_m;\n'
    '  C_buffer_s = TRUE;\n'
    '  C_buffer_t = C_buffer_s;\n'
    '  if (C_buffer_t) buffer_t = (!buffer_s);\n'
    '  C_x = (C_buffer_r && (C_buffer_t && buffer_t));\n'
    '  C_y = (C_buffer_t && !buffer_t);\n'
    '  if (C_y) {\n'
    '    if (!r_buffer_y(&y)) return FALSE;\n'
    '  }\n'
    '  if (C_buffer_r) buffer_r = (C_y ? y : buffer_m);\n'
    '  if (C_x) x = buffer_r;\n'
    '  if (C_x) w_buffer_x(x);\n'
    '  if (C_buffer_t) buffer_s = buffer_t;\n'
    '  if (C_buffer_r) buffer_m = buffer_r;\n'
    '  return TRUE;\n'
    '}\n'
)

FILTER = (
    'bool filter_iterate() {\n'
    '  C__x_cond_1 = TRUE;\n'
    '  C_x_prev = C__x_cond_1;\n'
    '  C_y = C__x_cond_1;\n'
    '  if (C_y) {\n'
    '    if (!r_filter_y(&y)) return FALSE;\n'
    '  }\n'
    '  if (C__x_cond_1) _x_cond_1 = (y != x_prev);\n'
    '  C_x = (C__x_cond_1 && _x_cond_1);\n'
    '  if (C_x) x = TRUE;\n'
    '  if (C_x) w_filter_x(x);\n'
    '  if (C_y) x_prev = y;\n'
    '  return TRUE;\n'
    '}\n'
)

#: ``normalized_suite()["main"]`` under the Section 5.1 master-clock scheme
MAIN = (
    'bool main_iterate() {\n'
    '  if (!r_main_C_a(&C_a)) return FALSE;\n'
    '  C_a = C_a;\n'
    '  if (!r_main_C_b(&C_b)) return FALSE;\n'
    '  C_b = C_b;\n'
    '  C_consumer_inst_2___v_rhs_2_alt_3 = C_b;\n'
    '  C_consumer_inst_2__v_lhs_1 = C_b;\n'
    '  C_consumer_inst_2__v_rhs_2 = C_consumer_inst_2___v_rhs_2_alt_3;\n'
    '  C_v = C_b;\n'
    '  if (C_a) {\n'
    '    if (!r_main_a(&a)) return FALSE;\n'
    '  }\n'
    '  C_u = (C_a && a);\n'
    '  C_producer_inst_1__u_rhs_1 = C_u;\n'
    '  C_x = (C_a && !a);\n'
    '  C_producer_inst_1__x_rhs_2 = C_x;\n'
    '  if (C_b) {\n'
    '    if (!r_main_b(&b)) return FALSE;\n'
    '  }\n'
    '  if (C_consumer_inst_2___v_rhs_2_alt_3) consumer_inst_2___v_rhs_2_alt_3 = 1;\n'
    '  if (C_u) u = (1 + producer_inst_1__u_rhs_1);\n'
    '  if (C_x) x = (1 + producer_inst_1__x_rhs_2);\n'
    '  if (C_consumer_inst_2__v_rhs_2) consumer_inst_2__v_rhs_2 = (C_x ? x : consumer_inst_2___v_rhs_2_alt_3);\n'
    '  if (C_v) v = (consumer_inst_2__v_lhs_1 + consumer_inst_2__v_rhs_2);\n'
    '  if (C_u) w_main_u(u);\n'
    '  if (C_v) w_main_v(v);\n'
    '  if (C_u) producer_inst_1__u_rhs_1 = u;\n'
    '  if (C_x) producer_inst_1__x_rhs_2 = x;\n'
    '  if (C_v) consumer_inst_2__v_lhs_1 = v;\n'
    '  return TRUE;\n'
    '}\n'
)

#: the same pair composed by :class:`Design` (its own instance naming)
DESIGN_MAIN = (
    'bool main_iterate() {\n'
    '  if (!r_main_C___v_rhs_2_alt_3(&C___v_rhs_2_alt_3)) return FALSE;\n'
    '  C___v_rhs_2_alt_3 = C___v_rhs_2_alt_3;\n'
    '  C__v_lhs_1 = C___v_rhs_2_alt_3;\n'
    '  C__v_rhs_2 = C___v_rhs_2_alt_3;\n'
    '  C_b = C___v_rhs_2_alt_3;\n'
    '  C_v = C_b;\n'
    '  if (!r_main_C_a(&C_a)) return FALSE;\n'
    '  C_a = C_a;\n'
    '  if (C___v_rhs_2_alt_3) __v_rhs_2_alt_3 = 1;\n'
    '  if (C_a) {\n'
    '    if (!r_main_a(&a)) return FALSE;\n'
    '  }\n'
    '  C_u = (C_a && a);\n'
    '  C__u_rhs_1 = C_u;\n'
    '  C_x = (C_a && !a);\n'
    '  C__x_rhs_2 = C_x;\n'
    '  if (C_b) {\n'
    '    if (!r_main_b(&b)) return FALSE;\n'
    '  }\n'
    '  if (C_u) u = (1 + _u_rhs_1);\n'
    '  if (C_x) x = (1 + _x_rhs_2);\n'
    '  if (C__v_rhs_2) _v_rhs_2 = (C_x ? x : __v_rhs_2_alt_3);\n'
    '  if (C_v) v = (_v_lhs_1 + _v_rhs_2);\n'
    '  if (C_u) w_main_u(u);\n'
    '  if (C_v) w_main_v(v);\n'
    '  if (C_x) w_main_x(x);\n'
    '  if (C_u) _u_rhs_1 = u;\n'
    '  if (C_x) _x_rhs_2 = x;\n'
    '  if (C_v) _v_lhs_1 = v;\n'
    '  return TRUE;\n'
    '}\n'
)


@pytest.mark.parametrize(
    "factory,expected",
    [(buffer_process, BUFFER), (filter_process, FILTER)],
    ids=["buffer", "filter"],
)
def test_single_clocked_listings(factory, expected):
    process = normalize(factory())
    assert compile_process(process).c_source == expected
    assert render_c(build_step_program(process)) == expected


def test_master_clocked_producer_consumer_listing(producer_consumer):
    analysis = ProcessAnalysis(producer_consumer["main"])
    assert compile_process(analysis, master_clocks=True).c_source == MAIN
    assert render_c(build_step_program(analysis, master_clocks=True)) == MAIN


@pytest.mark.parametrize("runtime", ["specialized", "interpreter", "batched"])
def test_every_runtime_lists_the_same_schedule(producer_consumer, runtime):
    design = Design(
        name="main",
        components=[producer_consumer["producer"], producer_consumer["consumer"]],
    )
    deployment = design.compile("sequential", runtime=runtime, master_clocks=True)
    assert deployment.listing() == DESIGN_MAIN
