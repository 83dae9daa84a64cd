#include "net/network.hpp"

#include <gtest/gtest.h>

#include "util/errors.hpp"

namespace mip6 {
namespace {

TEST(Network, NodesAndLinksByNameAndId) {
  Network net(1);
  Node& a = net.add_node("alpha");
  Node& b = net.add_node("beta");
  Link& l = net.add_link("lan");
  EXPECT_EQ(&net.node(0), &a);
  EXPECT_EQ(&net.node(1), &b);
  EXPECT_EQ(&net.node_by_name("beta"), &b);
  EXPECT_EQ(&net.link_by_name("lan"), &l);
  EXPECT_THROW(net.node_by_name("nope"), LogicError);
  EXPECT_THROW(net.link_by_name("nope"), LogicError);
}

TEST(Network, IfaceIdsUniqueAcrossNodes) {
  Network net(1);
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Interface& ia = a.add_interface();
  Interface& ib = b.add_interface();
  Interface& ia2 = a.add_interface();
  EXPECT_NE(ia.id(), ib.id());
  EXPECT_NE(ia.id(), ia2.id());
  EXPECT_EQ(&a.iface_by_id(ia2.id()), &ia2);
  EXPECT_THROW(a.iface_by_id(ib.id()), LogicError);
}

TEST(Node, InterfaceNameIncludesNode) {
  Network net(1);
  Node& a = net.add_node("router");
  Interface& i = a.add_interface();
  EXPECT_EQ(i.name(), "router/if" + std::to_string(i.id()));
}

}  // namespace
}  // namespace mip6
