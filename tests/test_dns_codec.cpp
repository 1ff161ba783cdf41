#include "packet/dns.h"

#include <gtest/gtest.h>

namespace caya {
namespace {

TEST(DnsCodec, QueryQnameRoundTrip) {
  const Bytes query = build_dns_query({.id = 0x1234, .qname =
                                           "www.wikipedia.org"});
  const auto qname = parse_dns_qname(query);
  ASSERT_TRUE(qname.has_value());
  EXPECT_EQ(*qname, "www.wikipedia.org");
}

TEST(DnsCodec, LengthPrefixMatchesBody) {
  const Bytes query = build_dns_query({.id = 1, .qname = "a.b"});
  const std::size_t prefixed = query[0] << 8 | query[1];
  EXPECT_EQ(prefixed + 2, query.size());
}

TEST(DnsCodec, ResponseRoundTrip) {
  const DnsResponse in{.id = 77,
                       .qname = "blocked.example",
                       .address = Ipv4Address::parse("198.51.100.7")};
  Bytes wire;
  build_dns_response_into(wire, in);
  const auto out = parse_dns_response(wire);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, 77);
  EXPECT_EQ(out->qname, "blocked.example");
  EXPECT_EQ(out->address, Ipv4Address::parse("198.51.100.7"));
}

TEST(DnsCodec, QueryIsNotParsedAsResponse) {
  const Bytes query = build_dns_query({.id = 5, .qname = "x.y"});
  EXPECT_EQ(parse_dns_response(query), std::nullopt);
}

TEST(DnsCodec, TruncatedMessagesRejectedGracefully) {
  const Bytes full = build_dns_query({.id = 9, .qname = "www.example.com"});
  for (std::size_t n = 0; n < full.size(); ++n) {
    Bytes prefix(full.begin(), full.begin() + static_cast<long>(n));
    EXPECT_EQ(parse_dns_qname(prefix), std::nullopt) << "prefix " << n;
  }
}

TEST(DnsCodec, SingleLabelName) {
  const Bytes query = build_dns_query({.id = 2, .qname = "localhost"});
  EXPECT_EQ(parse_dns_qname(query), "localhost");
}

TEST(DnsCodec, EmptyStreamRejected) {
  EXPECT_EQ(parse_dns_qname(Bytes{}), std::nullopt);
  EXPECT_EQ(parse_dns_response(Bytes{}), std::nullopt);
}

}  // namespace
}  // namespace caya
