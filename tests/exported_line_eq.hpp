// Bit-for-bit comparison of two serve::ExportedLine values, field by
// field, so a failure names the field that drifted. Floats and doubles
// compare by their bits (NaN == NaN with the same payload, 0.0 != -0.0).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "serve/line_state_store.hpp"

namespace nevermind::testing {

inline void expect_bit_identical(const serve::ExportedLine& a,
                                 const serve::ExportedLine& b,
                                 const std::string& what = "") {
  SCOPED_TRACE(what + " line " + std::to_string(a.line));
  const auto bits32 = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  const auto bits64 = [](double v) {
    return std::bit_cast<std::uint64_t>(v);
  };
  EXPECT_EQ(a.line, b.line);
  EXPECT_EQ(a.week, b.week);
  EXPECT_EQ(a.profile, b.profile);
  EXPECT_EQ(a.has_ticket, b.has_ticket);
  EXPECT_EQ(a.last_ticket, b.last_ticket);
  EXPECT_EQ(a.window.has_prev, b.window.has_prev);
  EXPECT_EQ(a.window.tests_seen, b.window.tests_seen);
  EXPECT_EQ(a.window.tests_off, b.window.tests_off);
  for (std::size_t m = 0; m < a.current.size(); ++m) {
    EXPECT_EQ(bits32(a.current[m]), bits32(b.current[m])) << "current " << m;
    EXPECT_EQ(bits32(a.window.prev[m]), bits32(b.window.prev[m]))
        << "prev " << m;
    const util::RunningStats& sa = a.window.history[m];
    const util::RunningStats& sb = b.window.history[m];
    EXPECT_EQ(sa.count(), sb.count()) << "history " << m;
    EXPECT_EQ(bits64(sa.raw_mean()), bits64(sb.raw_mean())) << "history " << m;
    EXPECT_EQ(bits64(sa.sum_sq_dev()), bits64(sb.sum_sq_dev()))
        << "history " << m;
    EXPECT_EQ(bits64(sa.raw_min()), bits64(sb.raw_min())) << "history " << m;
    EXPECT_EQ(bits64(sa.raw_max()), bits64(sb.raw_max())) << "history " << m;
  }
}

}  // namespace nevermind::testing
